//! The machine facts a serving run is recorded under.

use blas::level3::{kernel_class, BlockingParams, CacheInfo};

/// The runtime facts that decide DGEFMM's crossover on this machine:
/// cache sizes, the derived 5-loop blocking, and the SIMD kernel class.
/// Two processes on the same machine agree on every field, so result
/// sets recorded under different profiles are not comparable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineProfile {
    /// SIMD kernel class the runtime dispatcher selected (Debug form).
    pub kernel: String,
    /// L1 data cache size in bytes.
    pub l1d: usize,
    /// L2 cache size in bytes.
    pub l2: usize,
    /// L3 cache size in bytes.
    pub l3: usize,
    /// Derived 5-loop blocking: rows of the packed A block.
    pub mc: usize,
    /// Derived 5-loop blocking: depth of the packed panels.
    pub kc: usize,
    /// Derived 5-loop blocking: columns of the packed B block.
    pub nc: usize,
    /// Physical cores probed from sysfs (not the current pool size —
    /// worker count is a per-process choice, not a machine fact).
    pub physical_cores: usize,
}

impl MachineProfile {
    /// Probe this machine (sysfs cache topology + runtime kernel
    /// dispatch), the same facts `GemmConfig::auto` derives from.
    pub fn detect() -> MachineProfile {
        let cache = CacheInfo::detect();
        let bp = BlockingParams::auto_f64();
        MachineProfile {
            kernel: format!("{:?}", kernel_class()),
            l1d: cache.l1d,
            l2: cache.l2,
            l3: cache.l3,
            mc: bp.mc,
            kc: bp.kc,
            nc: bp.nc,
            physical_cores: pool::machine_threads(),
        }
    }
}
