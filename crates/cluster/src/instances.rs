//! The GCP instance catalog of the paper's experiments, with the monthly
//! prices (one-year commitment) quoted in Section III-C: "$108.09 in GCP,
//! an instance with an additional T4 GPU costs $268.09 per month and the
//! instance with the A100 GPU has a hefty price tag of $2,008.80."

use etude_tensor::Device;

/// A deployable cloud machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceType {
    /// General-purpose e2 instance: 5.5 vCPUs, 32 GB RAM.
    CpuE2,
    /// e2 instance with an attached NVidia Tesla T4 (16 GB).
    GpuT4,
    /// A2 instance with an NVidia Tesla A100 (40 GB), 12 vCPUs, 85 GB RAM.
    GpuA100,
}

impl InstanceType {
    /// The three instance types used in the paper's evaluation.
    pub const ALL: [InstanceType; 3] = [
        InstanceType::CpuE2,
        InstanceType::GpuT4,
        InstanceType::GpuA100,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            InstanceType::CpuE2 => "CPU",
            InstanceType::GpuT4 => "GPU-T4",
            InstanceType::GpuA100 => "GPU-A100",
        }
    }

    /// Parses an instance name.
    pub fn parse(name: &str) -> Option<InstanceType> {
        match name.to_ascii_uppercase().as_str() {
            "CPU" | "CPU-E2" | "E2" => Some(InstanceType::CpuE2),
            "GPU-T4" | "T4" => Some(InstanceType::GpuT4),
            "GPU-A100" | "A100" => Some(InstanceType::GpuA100),
            _ => None,
        }
    }

    /// Monthly cost in USD with a one-year commitment (paper's figures).
    pub fn monthly_cost(&self) -> f64 {
        match self {
            InstanceType::CpuE2 => 108.09,
            InstanceType::GpuT4 => 268.09,
            InstanceType::GpuA100 => 2_008.80,
        }
    }

    /// The inference device of this instance.
    pub fn device(&self) -> Device {
        match self {
            InstanceType::CpuE2 => Device::cpu(),
            InstanceType::GpuT4 => Device::t4(),
            InstanceType::GpuA100 => Device::a100(),
        }
    }

    /// vCPUs available to the serving process.
    pub fn vcpus(&self) -> usize {
        match self {
            InstanceType::CpuE2 => 5, // 5.5 vCPUs in the paper
            InstanceType::GpuT4 => 5,
            InstanceType::GpuA100 => 12,
        }
    }

    /// Whether this instance carries an accelerator.
    pub fn has_gpu(&self) -> bool {
        !matches!(self, InstanceType::CpuE2)
    }

    /// Whether a model whose embedding table needs `bytes` fits on the
    /// inference device (GPU memory, or host RAM for CPU serving).
    pub fn fits_model(&self, bytes: u64) -> bool {
        self.device().profile().fits(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_match_the_paper() {
        assert_eq!(InstanceType::CpuE2.monthly_cost(), 108.09);
        assert_eq!(InstanceType::GpuT4.monthly_cost(), 268.09);
        assert_eq!(InstanceType::GpuA100.monthly_cost(), 2_008.80);
    }

    #[test]
    fn paper_cost_comparisons_hold() {
        // Section III-C: five T4s ($1,343) beat two A100s ($4,017).
        let five_t4 = 5.0 * InstanceType::GpuT4.monthly_cost();
        let two_a100 = 2.0 * InstanceType::GpuA100.monthly_cost();
        assert!((five_t4 - 1_340.45).abs() < 0.01);
        assert!((two_a100 - 4_017.60).abs() < 0.01);
        assert!(five_t4 < two_a100);
        // Three CPUs ($324) vs one T4 ($268).
        assert!(3.0 * InstanceType::CpuE2.monthly_cost() > InstanceType::GpuT4.monthly_cost());
    }

    #[test]
    fn names_roundtrip() {
        for t in InstanceType::ALL {
            assert_eq!(InstanceType::parse(t.name()), Some(t));
        }
        assert_eq!(InstanceType::parse("a100"), Some(InstanceType::GpuA100));
        assert_eq!(InstanceType::parse("tpu"), None);
    }

    #[test]
    fn devices_match_instance_class() {
        assert!(!InstanceType::CpuE2.has_gpu());
        assert!(InstanceType::GpuT4.has_gpu());
        assert_eq!(InstanceType::GpuA100.device().name(), "gpu-a100");
    }

    #[test]
    fn capacity_gates_platform_scale_models() {
        // 20M items at d=67 is ~5.4 GB: fits on both GPUs; a hypothetical
        // 20 GB table would only fit on the A100 (40 GB).
        let platform_table = 20_000_000u64 * 67 * 4;
        assert!(InstanceType::GpuT4.fits_model(platform_table));
        assert!(InstanceType::GpuA100.fits_model(platform_table));
        assert!(!InstanceType::GpuT4.fits_model(20 * (1 << 30)));
        assert!(InstanceType::GpuA100.fits_model(20 * (1 << 30)));
    }
}
