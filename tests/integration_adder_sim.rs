//! Cross-crate integration: adders × predictors × simulator.
//!
//! These tests exercise paths that span crate boundaries: kernels
//! compiled with the ISA builder, executed by the simulator, feeding
//! adder-event streams into the core crate's speculation machinery.

use st2::core::dse::{carry_correlation, fig3_schemes, fig5_design_points, sweep};
use st2::prelude::*;

fn collect_records(specs: &[KernelSpec]) -> Vec<AddRecord> {
    let mut records = Vec::new();
    for spec in specs {
        let mut mem = spec.memory.clone();
        let out = run_functional(
            &spec.program,
            spec.launch,
            &mut mem,
            &FunctionalOptions {
                collect_records: true,
                ..Default::default()
            },
        );
        spec.verify(&mem).expect("kernel verifies");
        records.extend(out.records);
    }
    records
}

#[test]
fn fig3_correlation_ordering_on_real_kernels() {
    // The paper's Fig. 3 ordering must hold on real kernel streams:
    // temporal-only correlation is weak; adding the PC (spatial axis)
    // makes it strong; sharing across lanes keeps it strong.
    let specs = vec![
        st2::kernels::pathfinder::build(Scale::Test),
        st2::kernels::histogram::build(Scale::Test),
        st2::kernels::sad::build(Scale::Test),
    ];
    let records = collect_records(&specs);
    assert!(records.len() > 50_000, "need a substantial stream");

    let [gtid, fullpc_gtid, fullpc_ltid] = fig3_schemes();
    let r_t = carry_correlation(&records, gtid).match_rate();
    let r_st = carry_correlation(&records, fullpc_gtid).match_rate();
    let r_shared = carry_correlation(&records, fullpc_ltid).match_rate();

    assert!(
        r_st > r_t + 0.05,
        "spatio-temporal {r_st:.3} must clearly beat temporal-only {r_t:.3}"
    );
    assert!(
        r_st > 0.75,
        "per-PC carry correlation should be strong, got {r_st:.3}"
    );
    assert!(
        r_shared > 0.7,
        "lane-shared correlation should remain strong, got {r_shared:.3}"
    );
}

#[test]
fn fig5_ladder_on_real_kernels() {
    let specs = vec![
        st2::kernels::pathfinder::build(Scale::Test),
        st2::kernels::mergesort::build_k2(Scale::Test),
    ];
    let records = collect_records(&specs);
    let results = sweep(&records, &fig5_design_points());
    let rate = |label: &str| {
        results
            .iter()
            .find(|(c, _)| c.label() == label)
            .unwrap_or_else(|| panic!("missing {label}"))
            .1
            .misprediction_rate()
    };

    let st2 = rate("Ltid+Prev+ModPC4+Peek");
    let valhalla = rate("VaLHALLA");
    let static_zero = rate("staticZero");
    assert!(st2 < valhalla, "ST2 {st2:.3} !< VaLHALLA {valhalla:.3}");
    assert!(
        st2 < static_zero,
        "ST2 {st2:.3} !< staticZero {static_zero:.3}"
    );
    assert!(
        rate("VaLHALLA+Peek") <= valhalla,
        "retrofitting Peek must not hurt VaLHALLA"
    );
    assert!(
        rate("Prev+ModPC4+Peek") <= rate("Prev+Peek") + 0.01,
        "PC disambiguation must not hurt"
    );
    assert!(
        st2 < 0.25,
        "final design miss rate {st2:.3} implausibly high"
    );
}

#[test]
fn speculation_is_invisible_to_results() {
    // Identical output memory for baseline and ST² timed runs, for a
    // divergent, memory-heavy kernel.
    let spec = st2::kernels::sortnets::build_k1(Scale::Test);
    let mut base_mem = spec.memory.clone();
    let mut st2_mem = spec.memory.clone();
    let cfg = GpuConfig::scaled(2);
    let base = run_timed(&spec.program, spec.launch, &mut base_mem, &cfg);
    let st2 = run_timed(&spec.program, spec.launch, &mut st2_mem, &cfg.with_st2());
    assert_eq!(base_mem.as_bytes(), st2_mem.as_bytes());
    assert_eq!(
        base.activity.warp_instructions,
        st2.activity.warp_instructions
    );
    assert!(st2.activity.adder.ops > 0);
    assert!(st2.cycles >= base.cycles, "stalls can only add cycles");
}

#[test]
fn functional_and_timed_agree_across_suite_sample() {
    for spec in [
        st2::kernels::kmeans::build(Scale::Test),
        st2::kernels::qrng::build_k2(Scale::Test),
        st2::kernels::btree::build_k1(Scale::Test),
    ] {
        let mut m1 = spec.memory.clone();
        let f = run_functional(
            &spec.program,
            spec.launch,
            &mut m1,
            &FunctionalOptions::default(),
        );
        let mut m2 = spec.memory.clone();
        let t = run_timed(&spec.program, spec.launch, &mut m2, &GpuConfig::scaled(2));
        assert_eq!(
            m1.as_bytes(),
            m2.as_bytes(),
            "{} memories differ",
            spec.name
        );
        assert_eq!(
            f.mix.total(),
            t.activity.mix.total(),
            "{} instruction counts differ",
            spec.name
        );
        spec.verify(&m2).expect("verifies");
    }
}

#[test]
fn crf_hardware_matches_behavioural_table_for_st2_config() {
    // The 16×224-bit CRF and the behavioural Ltid+ModPC4 history table
    // must make identical predictions on an arbitrary stream.
    use st2::core::history::HistoryTable;
    use st2::core::{PcIndex, ThreadKey};

    let mut crf = CarryRegisterFile::new();
    let mut table = HistoryTable::new(PcIndex::ModPc(4), ThreadKey::Ltid, 1);
    let mut state = 0xDEADBEEFu64;
    for _ in 0..5_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pc = (state >> 5) as u32 & 0xFFFF;
        let lane = (state >> 21) as u32 & 31;
        let carries = (state >> 26) & 0x7F;
        let ctx = OpContext {
            pc,
            gtid: lane + 32 * ((state >> 40) as u32 & 7),
            ltid: lane,
        };
        assert_eq!(
            crf.predict(pc, lane),
            table.predict(&ctx) & 0x7F,
            "divergence at pc={pc} lane={lane}"
        );
        crf.write(pc, lane, carries);
        table.record(&ctx, carries);
    }
}
