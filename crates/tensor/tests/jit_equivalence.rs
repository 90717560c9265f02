//! Property tests of the JIT: for randomly generated dataflow graphs,
//! every pass combination must preserve outputs exactly, never increase
//! the modelled cost, and keep the graph well-formed.

use etude_tensor::kernels::{BinOp, UnOp};
use etude_tensor::{jit, Device, Exec, ExecMode, JitOptions, Param, TRef, Tensor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random but well-typed computation over a `[1, d]` input using
/// a seeded RNG, in whichever mode `exec` is in. Returns the output ref.
fn random_program(exec: &mut Exec, input: Tensor, seed: u64, steps: usize) -> TRef {
    let d = input.shape()[1];
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut frontier: Vec<TRef> = vec![exec.input(input).expect("input")];

    // A pool of weights created deterministically from the seed (Params
    // are cached per trace, so eager and traced runs see identical data).
    let weights: Vec<Param> = (0..3)
        .map(|i| {
            let data: Vec<f32> = (0..d * d)
                .map(|j| ((seed as f32 + i as f32 * 31.0 + j as f32) * 0.37).sin() * 0.5)
                .collect();
            Param::new(Tensor::from_vec(data, &[d, d]).expect("weight"))
        })
        .collect();
    let biases: Vec<Param> = (0..2)
        .map(|i| {
            let data: Vec<f32> = (0..d).map(|j| ((i + j) as f32 * 0.21).cos()).collect();
            Param::new(Tensor::from_vec(data, &[d]).expect("bias"))
        })
        .collect();

    for _ in 0..steps {
        let x = *frontier.last().expect("nonempty");
        let choice = rng.gen_range(0..8);
        let y = match choice {
            0 => {
                let w = exec
                    .param(&weights[rng.gen_range(0..weights.len())])
                    .unwrap();
                exec.matmul(x, w).unwrap()
            }
            1 => {
                let b = exec.param(&biases[rng.gen_range(0..biases.len())]).unwrap();
                exec.binary_row(BinOp::Add, x, b).unwrap()
            }
            2 => exec.unary(UnOp::Tanh, x).unwrap(),
            3 => exec.unary(UnOp::Sigmoid, x).unwrap(),
            4 => exec.scalar(BinOp::Mul, x, 0.5 + rng.gen::<f32>()).unwrap(),
            5 => exec.softmax(x).unwrap(),
            6 => {
                // A branch that is consumed twice (fusion must respect it).
                let a = exec.relu(x).unwrap();
                let b = exec.unary(UnOp::Neg, x).unwrap();
                exec.add(a, b).unwrap()
            }
            _ => {
                let w = exec.param(&weights[0]).unwrap();
                let lin = exec.matmul(x, w).unwrap();
                exec.gelu(lin).unwrap()
            }
        };
        frontier.push(y);
    }
    *frontier.last().expect("nonempty")
}

fn input_tensor(d: usize, seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
    let data: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(data, &[1, d]).expect("input")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_pass_combinations_preserve_semantics(
        seed in 0u64..10_000,
        steps in 1usize..10,
        d in 2usize..8,
    ) {
        // Eager reference.
        let mut eager = Exec::new(ExecMode::Real, Device::cpu());
        let out = random_program(&mut eager, input_tensor(d, seed), seed, steps);
        let expected = eager.tensor(out).unwrap().clone();

        // Trace once.
        let mut tracer = Exec::new(ExecMode::Trace, Device::cpu());
        let traced_out = random_program(&mut tracer, input_tensor(d, seed), seed, steps);
        let graph = tracer.finish_trace(traced_out).unwrap();

        for mask in 0u8..16 {
            let options = JitOptions {
                const_fold: mask & 1 != 0,
                pre_transpose: mask & 2 != 0,
                fuse: mask & 4 != 0,
                dce: mask & 8 != 0,
            };
            let compiled = jit::compile(graph.clone(), options).unwrap();
            let (got, cost) = compiled.run(&[input_tensor(d, seed)]).unwrap();
            let diff = expected.max_abs_diff(&got).unwrap();
            prop_assert!(
                diff < 1e-4,
                "passes {options:?} diverged by {diff}"
            );
            // The plan is the eager run of the same graph, bit for bit.
            let (eager, eager_cost) = compiled.graph().run(&[input_tensor(d, seed)]).unwrap();
            let bits = |t: &Tensor| -> Vec<u32> {
                t.as_slice().unwrap().iter().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(bits(&got), bits(&eager), "passes {:?}", options);
            prop_assert_eq!(got.shape(), eager.shape());
            prop_assert_eq!(cost, eager_cost);
        }
    }

    #[test]
    fn full_jit_never_costs_more_than_no_jit(
        seed in 0u64..10_000,
        steps in 1usize..12,
    ) {
        let d = 6;
        let mut tracer = Exec::new(ExecMode::Trace, Device::cpu());
        let traced_out = random_program(&mut tracer, input_tensor(d, seed), seed, steps);
        let graph = tracer.finish_trace(traced_out).unwrap();
        let base = jit::compile(graph.clone(), JitOptions::none()).unwrap();
        let opt = jit::compile(graph, JitOptions::default()).unwrap();
        let b = base.cost().at_batch(1);
        let o = opt.cost().at_batch(1);
        prop_assert!(o.launches <= b.launches);
        prop_assert!(o.bytes <= b.bytes * 1.0001);
        prop_assert!(o.flops <= b.flops + 1.0);
    }

    #[test]
    fn cost_only_mode_matches_real_mode_for_random_programs(
        seed in 0u64..10_000,
        steps in 1usize..10,
    ) {
        let d = 5;
        let mut real = Exec::new(ExecMode::Real, Device::cpu());
        random_program(&mut real, input_tensor(d, seed), seed, steps);
        let mut phantom = Exec::new(ExecMode::CostOnly, Device::cpu());
        random_program(&mut phantom, input_tensor(d, seed), seed, steps);
        let r = real.cost().total();
        let p = phantom.cost().total();
        prop_assert_eq!(r.launches, p.launches);
        prop_assert!((r.flops - p.flops).abs() < 1e-6);
        prop_assert!((r.bytes - p.bytes).abs() < 1e-6);
    }
}
