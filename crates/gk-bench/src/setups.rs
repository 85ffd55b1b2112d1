//! The two experimental setups of §4.2.

use gk_gpusim::device::DeviceSpec;

/// One experimental setup (host + attached GPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setup {
    /// Setup name as used in the paper's tables.
    pub name: &'static str,
    /// Number of GPUs attached in the paper's machine.
    pub max_devices: usize,
    /// Number of CPU cores used for the multicore GateKeeper-CPU baseline.
    pub cpu_cores: usize,
    kind: SetupKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetupKind {
    Pascal,
    Kepler,
}

impl Setup {
    /// The device spec of this setup's GPUs.
    pub fn device(&self) -> DeviceSpec {
        match self.kind {
            SetupKind::Pascal => DeviceSpec::gtx_1080_ti(),
            SetupKind::Kepler => DeviceSpec::tesla_k20x(),
        }
    }
}

/// Setup 1: Intel Xeon Gold 6140 host with 8 × GeForce GTX 1080 Ti (PCIe gen 3).
pub const SETUP1: Setup = Setup {
    name: "Setup 1",
    max_devices: 8,
    cpu_cores: 12,
    kind: SetupKind::Pascal,
};

/// Setup 2: Intel Xeon E5-2643 host with 4 × Tesla K20X (PCIe gen 2, no prefetch).
pub const SETUP2: Setup = Setup {
    name: "Setup 2",
    max_devices: 4,
    cpu_cores: 12,
    kind: SetupKind::Kepler,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_devices_differ() {
        assert_ne!(SETUP1.device().name, SETUP2.device().name);
        assert!(SETUP1.device().supports_prefetch());
        assert!(!SETUP2.device().supports_prefetch());
    }
}
