//! Cross-model behavioural suite: every paper claim about the model set
//! (JIT-ability, quirk costs, determinism) checked across all ten models.

use etude_models::{common, traits, ModelConfig, ModelKind};
use etude_tensor::{Device, ExecMode, JitError, JitOptions};

fn small_cfg() -> ModelConfig {
    ModelConfig::new(200).with_max_session_len(8).with_seed(11)
}

/// Golden-output regression: every model's exact recommendation for a
/// fixed seed/session is pinned in `tests/golden/<model>.txt`. Scores are
/// rendered with `f32`'s shortest round-trip `Display`, so any numeric
/// drift — a reordered reduction, a changed initialiser, an "equivalent"
/// refactor — fails this test. Regenerate fixtures deliberately with
/// `ETUDE_BLESS_GOLDEN=1 cargo test -p etude-models --test suite golden`.
#[test]
fn outputs_match_golden_fixtures() {
    let cfg = small_cfg();
    let session = [3u32, 5, 7, 11];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var_os("ETUDE_BLESS_GOLDEN").is_some();
    for kind in ModelKind::ALL {
        let model = kind.build(&cfg);
        let rec = traits::recommend_eager(model.as_ref(), &Device::cpu(), &session).unwrap();
        let rendered: String = rec
            .items
            .iter()
            .zip(&rec.scores)
            .map(|(item, score)| format!("{item}:{score}\n"))
            .collect();
        let path = dir.join(format!("{}.txt", kind.name()));
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing golden fixture {path:?}: {e}", kind.name()));
        assert_eq!(
            rendered,
            golden,
            "{}: output drifted from {path:?} — if the change is intended, \
             re-bless with ETUDE_BLESS_GOLDEN=1",
            kind.name()
        );
    }
}

#[test]
fn all_ten_models_build_and_recommend() {
    let cfg = small_cfg();
    for kind in ModelKind::ALL {
        let model = kind.build(&cfg);
        let rec = traits::recommend_eager(model.as_ref(), &Device::cpu(), &[3, 5, 7])
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(rec.items.len(), cfg.top_k.min(cfg.catalog_size));
        assert!(
            rec.items.iter().all(|&i| (i as usize) < cfg.catalog_size),
            "{}: item out of catalog",
            kind.name()
        );
        assert!(
            rec.scores
                .windows(2)
                .all(|w| w[0] >= w[1] || (w[0] - w[1]).abs() < 1e-6),
            "{}: scores not sorted",
            kind.name()
        );
    }
}

#[test]
fn recommendations_are_deterministic() {
    let cfg = small_cfg();
    for kind in ModelKind::ALL {
        let a = kind.build(&cfg);
        let b = kind.build(&cfg);
        let ra = traits::recommend_eager(a.as_ref(), &Device::cpu(), &[1, 2, 3]).unwrap();
        let rb = traits::recommend_eager(b.as_ref(), &Device::cpu(), &[1, 2, 3]).unwrap();
        assert_eq!(ra.items, rb.items, "{} not deterministic", kind.name());
    }
}

#[test]
fn session_context_changes_recommendations() {
    // Models must actually condition on the session; require it for at
    // least 8/10 on this particular seed.
    let cfg = small_cfg();
    let mut differing = 0;
    for kind in ModelKind::ALL {
        let model = kind.build(&cfg);
        let a = traits::recommend_eager(model.as_ref(), &Device::cpu(), &[1]).unwrap();
        let b = traits::recommend_eager(model.as_ref(), &Device::cpu(), &[150, 42, 99]).unwrap();
        if a.items != b.items {
            differing += 1;
        }
    }
    assert!(differing >= 8, "only {differing}/10 models use context");
}

#[test]
fn cost_only_mode_agrees_with_real_mode_cost() {
    // The cost model used for 10M+ catalogs must agree exactly with what
    // real execution records, or Figure 3/4 numbers would be fiction.
    let cfg = small_cfg();
    for kind in ModelKind::ALL {
        let dense = kind.build(&cfg);
        let phantom = kind.build(&cfg.clone().without_weights());
        let real = traits::forward_cost(dense.as_ref(), &Device::cpu(), ExecMode::Real, 3)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let est = traits::forward_cost(phantom.as_ref(), &Device::cpu(), ExecMode::CostOnly, 3)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!(
            (real.flops - est.flops).abs() <= 1e-6 * real.flops.max(1.0),
            "{}: {} vs {}",
            kind.name(),
            real.flops,
            est.flops
        );
        assert_eq!(real.launches, est.launches, "{}", kind.name());
    }
}

#[test]
fn jit_compiles_all_models_except_quirky_lightsans() {
    // Paper, Section III-B: LightSANs "cannot be JIT-optimised by PyTorch
    // due to dynamic code paths"; the other nine compile.
    let cfg = small_cfg();
    for kind in ModelKind::ALL {
        let model = kind.build(&cfg);
        let compiled = traits::compile(model.as_ref(), JitOptions::default());
        if kind == ModelKind::LightSans {
            assert!(
                matches!(compiled, Err(JitError::DynamicControlFlow(_))),
                "quirky LightSANs must refuse JIT"
            );
        } else {
            compiled.unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }
}

#[test]
fn fixed_lightsans_is_jittable() {
    let cfg = small_cfg().with_quirks(false);
    let model = ModelKind::LightSans.build(&cfg);
    assert!(traits::compile(model.as_ref(), JitOptions::default()).is_ok());
}

#[test]
fn compiled_models_match_eager_outputs() {
    let cfg = small_cfg();
    for kind in ModelKind::ALL {
        if kind == ModelKind::LightSans {
            continue; // not JIT-able with quirks on
        }
        let model = kind.build(&cfg);
        let session = [4u32, 9, 2, 7];
        let eager = traits::recommend_eager(model.as_ref(), &Device::cpu(), &session).unwrap();
        let compiled = traits::compile(model.as_ref(), JitOptions::default()).unwrap();
        let jit = traits::recommend_compiled(model.as_ref(), &compiled, &session).unwrap();
        assert_eq!(
            eager.items,
            jit.items,
            "{}: JIT changed outputs",
            kind.name()
        );
    }
}

/// The compiled plan is the eager run of the same optimised graph, bit
/// for bit: on all ten models (LightSANs without its quirk, so that it
/// compiles), one session at a time and in batches of 1, 3 and 8
/// mixed-length sessions, where one out-of-catalog id fails its own
/// session and no other.
#[test]
fn compiled_plan_is_bit_identical_to_the_eager_graph() {
    let cfg = small_cfg();
    let sessions: Vec<Vec<u32>> = vec![
        vec![],
        vec![4],
        vec![4, 9, 2, 7],
        vec![199, 0, 13],
        (1..=12).collect(),
        vec![5, 5, 5],
        vec![17, 3, 8, 150, 42, 7, 7],
        vec![88, 1],
    ];
    let bad = vec![3u32, cfg.catalog_size as u32, 5];
    let bits = |r: &traits::Recommendation| -> (Vec<u32>, Vec<u32>) {
        (
            r.items.clone(),
            r.scores.iter().map(|s| s.to_bits()).collect(),
        )
    };
    for kind in ModelKind::ALL {
        let model = match kind {
            ModelKind::LightSans => kind.build(&cfg.clone().with_quirks(false)),
            _ => kind.build(&cfg),
        };
        let compiled = traits::compile(model.as_ref(), JitOptions::default()).unwrap();
        let eager = |session: &[u32]| {
            let (items, mask, last) = common::prepare_session(session, model.config());
            let (out, _) = compiled.graph().run(&[items, mask, last])?;
            traits::Recommendation::from_output(&out)
        };
        for session in &sessions {
            let want = eager(session).unwrap();
            let got = traits::recommend_compiled(model.as_ref(), &compiled, session).unwrap();
            assert_eq!(bits(&got), bits(&want), "{} {session:?}", kind.name());
        }
        assert!(traits::recommend_compiled(model.as_ref(), &compiled, &bad).is_err());
        for batch in [1usize, 3, 8] {
            // The bad session sits in the middle of the batch.
            let mut members: Vec<&[u32]> = sessions[..batch].iter().map(Vec::as_slice).collect();
            members.insert(batch / 2, &bad);
            let got = traits::recommend_compiled_batch_timed(
                model.as_ref(),
                &compiled,
                members.iter().copied(),
            );
            assert_eq!(got.len(), members.len());
            for (session, got) in members.iter().zip(&got) {
                match eager(session) {
                    Ok(want) => {
                        let (rec, _) = got.as_ref().unwrap_or_else(|e| {
                            panic!("{} batch {batch} {session:?}: {e}", kind.name())
                        });
                        assert_eq!(bits(rec), bits(&want), "{} batch {batch}", kind.name());
                    }
                    Err(_) => assert!(got.is_err(), "{}: bad id must fail", kind.name()),
                }
            }
        }
    }
}

#[test]
fn jit_never_increases_cost() {
    // Paper, Section III-B: "JIT-optimisation is always beneficial and
    // never hurts performance."
    let cfg = small_cfg();
    for kind in ModelKind::ALL {
        if kind == ModelKind::LightSans {
            continue;
        }
        let model = kind.build(&cfg);
        let base = traits::compile(model.as_ref(), JitOptions::none()).unwrap();
        let opt = traits::compile(model.as_ref(), JitOptions::default()).unwrap();
        let b = base.cost().at_batch(1);
        let o = opt.cost().at_batch(1);
        assert!(o.launches <= b.launches, "{}", kind.name());
        assert!(o.bytes <= b.bytes * 1.0001, "{}", kind.name());
    }
}

#[test]
fn jit_strictly_reduces_launches_for_most_models() {
    // GRU4Rec's forward pass is almost entirely GRU-cell primitives with
    // no fusible elementwise chains, so strict reduction is not guaranteed
    // there; it must hold for the attention/graph/transformer models.
    let cfg = small_cfg();
    let mut strictly_reduced = 0;
    let mut eligible = 0;
    for kind in ModelKind::ALL {
        if kind == ModelKind::LightSans {
            continue;
        }
        eligible += 1;
        let model = kind.build(&cfg);
        let base = traits::compile(model.as_ref(), JitOptions::none()).unwrap();
        let opt = traits::compile(model.as_ref(), JitOptions::default()).unwrap();
        if opt.cost().at_batch(1).launches < base.cost().at_batch(1).launches {
            strictly_reduced += 1;
        }
    }
    assert!(
        strictly_reduced >= eligible - 1,
        "fusion fired for only {strictly_reduced}/{eligible} models"
    );
}

#[test]
fn quirky_models_cost_more_than_fixed_ones() {
    // Paper, Section III-C: SR-GNN, GC-SAN and RepeatNet carry
    // implementation bugs that make them drastically slower.
    let quirky_cfg = small_cfg();
    let fixed_cfg = small_cfg().with_quirks(false);
    for kind in [ModelKind::RepeatNet, ModelKind::SrGnn, ModelKind::GcSan] {
        let quirky = kind.build(&quirky_cfg);
        let fixed = kind.build(&fixed_cfg);
        let qc = traits::forward_cost(quirky.as_ref(), &Device::t4(), ExecMode::Real, 4).unwrap();
        let fc = traits::forward_cost(fixed.as_ref(), &Device::t4(), ExecMode::Real, 4).unwrap();
        let worse = qc.bytes > fc.bytes || qc.transfers > fc.transfers;
        assert!(worse, "{}: quirk has no cost effect", kind.name());
    }
}

#[test]
fn decode_cost_scales_linearly_with_catalog_size() {
    // Paper, Section II: inference time is dominated by catalog size C
    // across all models — the microbenchmark's linear scaling.
    for kind in ModelKind::ALL {
        let c1 = {
            let cfg = ModelConfig::new(10_000)
                .without_weights()
                .with_embedding_dim(16);
            let m = kind.build(&cfg);
            traits::forward_cost(m.as_ref(), &Device::cpu(), ExecMode::CostOnly, 4).unwrap()
        };
        let c2 = {
            let cfg = ModelConfig::new(1_000_000)
                .without_weights()
                .with_embedding_dim(16);
            let m = kind.build(&cfg);
            traits::forward_cost(m.as_ref(), &Device::cpu(), ExecMode::CostOnly, 4).unwrap()
        };
        let ratio = c2.bytes / c1.bytes;
        assert!(
            ratio > 20.0,
            "{}: catalog growth x100 moved bytes only x{ratio:.1}",
            kind.name()
        );
    }
}

#[test]
fn phantom_models_handle_platform_scale_catalogs() {
    // 20M items, d=67: the table would be 5.4 GB dense. Phantom weights
    // let cost-only inference run instantly.
    let cfg = ModelConfig::new(20_000_000).without_weights();
    for kind in [ModelKind::Core, ModelKind::Gru4Rec, ModelKind::SasRec] {
        let m = kind.build(&cfg);
        let cost =
            traits::forward_cost(m.as_ref(), &Device::a100(), ExecMode::CostOnly, 5).unwrap();
        // The MIPS alone reads 4 * 20e6 * 67 bytes = 5.4 GB.
        assert!(cost.bytes > 5.0e9, "{}: {}", kind.name(), cost.bytes);
    }
}
