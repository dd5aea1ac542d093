//! Runtime selection of the 5-loop blocking parameters `(mc, kc, nc)`.
//!
//! The Goto/BLIS analytical model ties each parameter to one level of the
//! cache hierarchy:
//!
//! * `kc` — a `kc x NR` packed-`B` micro-panel should occupy about half
//!   of L1d, leaving the other half for the streaming `A` panel and `C`
//!   tile;
//! * `mc` — the `mc x kc` packed-`A` block should occupy about half of
//!   L2, so it survives the whole `jr` sweep;
//! * `nc` — the `kc x nc` packed-`B` panel should sit in L3; it is also
//!   capped so the pack buffer stays modest on parts with enormous L3.
//!
//! Cache sizes come from a sysfs probe (`/sys/devices/system/cpu/.../
//! cache`) with a conservative fallback profile when the probe fails
//! (non-Linux hosts, sandboxes that mask sysfs). The derived parameters
//! are rounded to kernel-friendly multiples: `mc` to `2·MR` so the
//! macro-kernel's paired-panel AVX-512 path sees whole pairs, `nc` to
//! `NR`. The probe and derivation run once per process ([`std::sync::
//! OnceLock`]); [`GemmConfig::auto`](super::GemmConfig::auto) is the
//! public entry point.

use super::kernel::{MR, NR};
use std::sync::OnceLock;

/// Data-cache sizes in bytes, innermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheInfo {
    /// Per-core L1 data cache.
    pub l1d: usize,
    /// Per-core unified L2.
    pub l2: usize,
    /// Shared last-level cache.
    pub l3: usize,
}

impl CacheInfo {
    /// Conservative defaults (a generic x86-64 server core) used when the
    /// sysfs probe is unavailable.
    pub const FALLBACK: CacheInfo = CacheInfo { l1d: 32 * 1024, l2: 1024 * 1024, l3: 8 * 1024 * 1024 };

    /// Probe this machine's cache sizes, falling back per level to
    /// [`CacheInfo::FALLBACK`] for anything the probe cannot read.
    pub fn detect() -> CacheInfo {
        let probed = probe_sysfs();
        CacheInfo {
            l1d: probed.l1d.unwrap_or(Self::FALLBACK.l1d),
            l2: probed.l2.unwrap_or(Self::FALLBACK.l2),
            l3: probed.l3.unwrap_or(probed.l2.map_or(Self::FALLBACK.l3, |l2| l2 * 8)),
        }
    }
}

#[derive(Default)]
struct ProbedCaches {
    l1d: Option<usize>,
    l2: Option<usize>,
    l3: Option<usize>,
}

/// Parse a sysfs cache size string like `"48K"`, `"2048K"`, or `"16M"`.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Read cpu0's cache hierarchy from sysfs. Any unreadable entry is
/// simply skipped — the caller falls back per level.
fn probe_sysfs() -> ProbedCaches {
    let mut out = ProbedCaches::default();
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let Ok(entries) = std::fs::read_dir(base) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let read = |name: &str| std::fs::read_to_string(path.join(name)).ok();
        let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let Some(bytes) = parse_size(&size) else { continue };
        let ty = ty.trim();
        match (level.trim(), ty) {
            ("1", "Data") => out.l1d = Some(bytes),
            ("2", "Unified") | ("2", "Data") => out.l2 = Some(bytes),
            ("3", "Unified") | ("3", "Data") => out.l3 = Some(bytes),
            _ => {}
        }
    }
    out
}

/// One derived `(mc, kc, nc)` blocking, in elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockingParams {
    /// Rows of packed `A` per L2 block (multiple of `2·MR`).
    pub mc: usize,
    /// Panel depth (L1-sized).
    pub kc: usize,
    /// Columns of packed `B` per outer panel (multiple of `NR`).
    pub nc: usize,
}

/// Upper cap on `nc`: beyond this the packed-`B` panel stops paying for
/// itself and the buffer just grows (4092 = largest multiple of `NR`
/// under 4096, the top of the bench sweep).
const NC_CAP: usize = 4092;

impl BlockingParams {
    /// Derive the blocking for an element of `elem_size` bytes from the
    /// cache model above.
    pub fn for_cache(cache: &CacheInfo, elem_size: usize) -> BlockingParams {
        let kc = (cache.l1d / 2 / (NR * elem_size)).clamp(64, 1024);
        // Round kc down to a multiple of 8 so panel strides stay aligned.
        let kc = (kc / 8 * 8).max(64);
        let mc = (cache.l2 / 2 / (kc * elem_size)).clamp(2 * MR, 2048);
        let mc = (mc / (2 * MR)) * (2 * MR);
        let nc = (cache.l3 / 2 / (kc * elem_size)).clamp(NR, NC_CAP);
        let nc = (nc / NR * NR).max(NR);
        BlockingParams { mc, kc, nc }
    }

    /// The cached per-process blocking for `f64` (probe + derivation run
    /// once).
    pub fn auto_f64() -> BlockingParams {
        static CACHED: OnceLock<BlockingParams> = OnceLock::new();
        *CACHED.get_or_init(|| BlockingParams::for_cache(&CacheInfo::detect(), 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_handles_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2048K\n"), Some(2048 * 1024));
        assert_eq!(parse_size("16M"), Some(16 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn fallback_profile_derives_sane_blocking() {
        let p = BlockingParams::for_cache(&CacheInfo::FALLBACK, 8);
        assert!(p.kc >= 64 && p.kc <= 1024);
        assert!(p.mc >= 2 * MR && p.mc % (2 * MR) == 0);
        assert!(p.nc >= NR && p.nc % NR == 0 && p.nc <= NC_CAP);
        // The model's intent, restated: the packed A block fits in half
        // the modeled L2, the B micro-panel in half the modeled L1.
        assert!(p.mc * p.kc * 8 <= CacheInfo::FALLBACK.l2);
        assert!(p.kc * NR * 8 <= CacheInfo::FALLBACK.l1d);
    }

    #[test]
    fn degenerate_caches_still_yield_legal_parameters() {
        for cache in
            [CacheInfo { l1d: 1, l2: 1, l3: 1 }, CacheInfo { l1d: 1 << 30, l2: 1 << 30, l3: 1 << 30 }]
        {
            let p = BlockingParams::for_cache(&cache, 8);
            assert!(p.mc >= 2 * MR && p.kc >= 64 && p.nc >= NR);
            assert!(p.nc <= NC_CAP && p.mc <= 2048 && p.kc <= 1024);
        }
    }

    /// The benchmark records `(mc, kc, nc)` in every result's machine
    /// profile, and its `compare` refuses two result sets whose profiles
    /// differ. A tile change that moved the blocking on this cache profile
    /// (48 KiB L1d, 2 MiB L2, 300 MiB L3, an AVX-512 Xeon) would therefore
    /// make every before-and-after comparison impossible, so the
    /// derivation is pinned. (A 16 x 12 tile, `NR = 12`, would give
    /// `kc = 256` and `mc = 512` here.)
    #[test]
    fn xeon_cache_profile_blocking_is_pinned() {
        let xeon = CacheInfo { l1d: 48 * 1024, l2: 2 * 1024 * 1024, l3: 300 * 1024 * 1024 };
        assert_eq!(BlockingParams::for_cache(&xeon, 8), BlockingParams { mc: 256, kc: 512, nc: 4092 });
    }

    #[test]
    fn auto_is_deterministic() {
        assert_eq!(BlockingParams::auto_f64(), BlockingParams::auto_f64());
        let detected = CacheInfo::detect();
        assert!(detected.l1d > 0 && detected.l2 > 0 && detected.l3 > 0);
    }
}
