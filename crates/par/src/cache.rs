//! Cache-hierarchy probe: effective L1d/L2 sizes for the tiling
//! heuristics.
//!
//! The MPK tiling model (L2) and the whole-iteration sweep's staging tile
//! (L1d) both need to know how big the per-core caches actually are. A static guess (the old
//! `MPK_L2_BUDGET_BYTES = 1.5 MiB` constant) is wrong on both small
//! client parts and big server parts, so this module reads the sizes once
//! from Linux sysfs (`/sys/devices/system/cpu/cpu0/cache/index*/`), falling
//! back to conservative defaults (32 KiB L1d, 1 MiB L2) when sysfs is
//! absent (non-Linux, sandboxes, exotic containers).
//!
//! Probed values are clamped to a sane range — a corrupt or wildly
//! misreported sysfs entry must not drive tile sizes to 0 or 2 GiB. The
//! probe is the only source: no environment variable overrides it.

use std::sync::OnceLock;

/// Conservative fallback L1 data-cache size (bytes) when probing fails.
pub const FALLBACK_L1D_BYTES: usize = 32 * 1024;

/// Conservative fallback per-core L2 size (bytes) when probing fails.
pub const FALLBACK_L2_BYTES: usize = 1024 * 1024;

/// Probed (or fallen-back) cache sizes, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache size per core.
    pub l1d_bytes: usize,
    /// Unified L2 size per core.
    pub l2_bytes: usize,
    /// Whether the values came from a live sysfs probe (`false` = fallback
    /// constants).
    pub probed: bool,
}

/// Parse a sysfs cache size string like `48K`, `2048K`, `1M`, `262144`.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Clamp a probed size into a plausible range so a garbage sysfs value
/// cannot wreck the tiling heuristics.
fn plausible(bytes: usize, lo: usize, hi: usize) -> Option<usize> {
    (lo..=hi).contains(&bytes).then_some(bytes)
}

#[cfg(target_os = "linux")]
fn probe_sysfs() -> (Option<usize>, Option<usize>) {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return (None, None);
    };
    let (mut l1d, mut l2) = (None, None);
    for e in entries.flatten() {
        let dir = e.path();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
        let level = read("level").trim().parse::<u32>().unwrap_or(0);
        let ty = read("type");
        let ty = ty.trim();
        let size = parse_size(&read("size"));
        match (level, ty) {
            (1, "Data") => l1d = size,
            // every x86 L2 is unified; accept "Data" too for odd topologies
            (2, "Unified" | "Data") => l2 = size,
            _ => {}
        }
    }
    (l1d, l2)
}

#[cfg(not(target_os = "linux"))]
fn probe_sysfs() -> (Option<usize>, Option<usize>) {
    (None, None)
}

fn resolve() -> CacheInfo {
    let (sys_l1d, sys_l2) = probe_sysfs();
    // 4 KiB..2 MiB for L1d, 64 KiB..64 MiB for L2 — anything outside is
    // treated as a misreport and replaced by the fallback
    let l1d_probed = sys_l1d.and_then(|b| plausible(b, 4 << 10, 2 << 20));
    let l2_probed = sys_l2.and_then(|b| plausible(b, 64 << 10, 64 << 20));
    CacheInfo {
        l1d_bytes: l1d_probed.unwrap_or(FALLBACK_L1D_BYTES),
        l2_bytes: l2_probed.unwrap_or(FALLBACK_L2_BYTES),
        probed: l1d_probed.is_some() || l2_probed.is_some(),
    }
}

/// The host cache hierarchy, probed once on first use (then cached for the
/// process lifetime).
#[must_use]
pub fn cache_info() -> CacheInfo {
    static INFO: OnceLock<CacheInfo> = OnceLock::new();
    *INFO.get_or_init(resolve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_handles_sysfs_forms() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2048K\n"), Some(2048 * 1024));
        assert_eq!(parse_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_size("262144"), Some(262144));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("zork"), None);
    }

    #[test]
    fn plausible_rejects_garbage() {
        assert_eq!(plausible(0, 4 << 10, 2 << 20), None);
        assert_eq!(plausible(usize::MAX, 64 << 10, 64 << 20), None);
        assert_eq!(plausible(48 << 10, 4 << 10, 2 << 20), Some(48 << 10));
    }

    #[test]
    fn cache_info_is_always_sane() {
        let info = cache_info();
        assert!(info.l1d_bytes >= 4 << 10, "{info:?}");
        assert!(info.l2_bytes >= 64 << 10, "{info:?}");
        assert!(info.l2_bytes >= info.l1d_bytes, "{info:?}");
        // stable across calls (OnceLock)
        assert_eq!(info, cache_info());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sysfs_probe_finds_real_caches_when_present() {
        let (l1d, l2) = probe_sysfs();
        // only assert when the sysfs tree exists (bare containers may hide it)
        if std::path::Path::new("/sys/devices/system/cpu/cpu0/cache/index0/size").exists() {
            assert!(l1d.is_some() || l2.is_some());
        }
    }
}
