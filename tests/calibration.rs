//! Paper-anchor calibration suite.
//!
//! Every test pins one observable the paper reports to a tolerance
//! band, so a change to the cost model (`linuxhost::calib`) or the
//! simulator that silently de-calibrates a figure fails here rather
//! than in a generated plot. Tolerances are deliberately generous —
//! these guard the *shape* (who wins, by roughly what factor), not
//! digits.
//!
//! Durations are shorter than the paper's 60 s (the model is
//! time-homogeneous after slow start; `omit` excludes the ramp).

use dtnperf::prelude::*;

fn run1(host: &HostConfig, path: &PathSpec, opts: Iperf3Opts) -> Iperf3Report {
    iperf3_run(host, host, path, &opts).expect("calibration scenario must be valid")
}

fn gbps(host: &HostConfig, path: &PathSpec, opts: Iperf3Opts) -> f64 {
    run1(host, path, opts).sum_bitrate().as_gbps()
}

fn lan_opts() -> Iperf3Opts {
    Iperf3Opts::new(4).omit(1)
}

fn wan_opts() -> Iperf3Opts {
    Iperf3Opts::new(12).omit(4)
}

// ---------- Fig. 5 (AmLight / Intel / 6.8) --------------------------------

#[test]
fn fig5_intel_lan_default_near_55() {
    let g = gbps(
        &Testbeds::amlight_host(KernelVersion::L6_8),
        &Testbeds::amlight_path(AmLightPath::Lan),
        lan_opts(),
    );
    assert!((50.0..61.0).contains(&g), "Intel LAN default: {g:.1} (paper: 55)");
}

#[test]
fn fig5_intel_wan_default_below_lan() {
    let host = Testbeds::amlight_host(KernelVersion::L6_8);
    let wan = gbps(&host, &Testbeds::amlight_path(AmLightPath::Wan104ms), wan_opts());
    assert!(
        (32.0..46.0).contains(&wan),
        "Intel 104ms default: {wan:.1} (sender window penalty; paper ~37)"
    );
}

#[test]
fn fig5_zerocopy_plus_pacing_holds_50_on_all_wan_paths() {
    let host = Testbeds::amlight_host(KernelVersion::L6_8);
    for p in [AmLightPath::Wan25ms, AmLightPath::Wan54ms, AmLightPath::Wan104ms] {
        let g = gbps(
            &host,
            &Testbeds::amlight_path(p),
            wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0)),
        );
        assert!(
            (44.0..50.0).contains(&g),
            "zc+pace50 at {}: {g:.1} (paper: ~50, flat across RTTs)",
            p.label()
        );
    }
}

#[test]
fn fig5_zerocopy_with_pacing_beats_default_by_tens_of_percent() {
    let host = Testbeds::amlight_host(KernelVersion::L6_8);
    let path = Testbeds::amlight_path(AmLightPath::Wan104ms);
    let default = gbps(&host, &path, wan_opts());
    let zc = gbps(&host, &path, wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0)));
    let gain = zc / default - 1.0;
    assert!(
        (0.10..0.50).contains(&gain),
        "zc+pacing gain on 104ms: {:.0}% (paper: up to 35%)",
        gain * 100.0
    );
}

#[test]
fn fig5_zerocopy_alone_is_no_silver_bullet() {
    // §IV-A: "MSG_ZEROCOPY by itself does not improve throughput".
    let host = Testbeds::amlight_host(KernelVersion::L6_8);
    let path = Testbeds::amlight_path(AmLightPath::Wan104ms);
    let default = gbps(&host, &path, wan_opts());
    let zc_only = gbps(&host, &path, wan_opts().zerocopy());
    let ratio = zc_only / default;
    assert!(
        (0.75..1.30).contains(&ratio),
        "zerocopy alone vs default on 104ms: x{ratio:.2} (paper: ≈1, no gain)"
    );
}

#[test]
fn fig5_big_tcp_gains_10_to_20_percent_on_lan() {
    let base = Testbeds::amlight_host(KernelVersion::L6_8);
    let mut big = base.clone();
    big.offload = big
        .offload
        .with_big_tcp(dtnperf::linuxhost::offload::PAPER_BIG_TCP_SIZE, KernelVersion::L6_8);
    let lan = Testbeds::amlight_path(AmLightPath::Lan);
    let d = gbps(&base, &lan, lan_opts());
    let b = gbps(&big, &lan, lan_opts());
    let gain = b / d - 1.0;
    assert!(
        (0.06..0.25).contains(&gain),
        "BIG TCP LAN gain: {:.0}% (paper: up to 16%)",
        gain * 100.0
    );
}

// ---------- Fig. 6 (ESnet / AMD / 6.8) ------------------------------------

#[test]
fn fig6_amd_lan_default_near_42() {
    let g = gbps(
        &Testbeds::esnet_host(KernelVersion::L6_8),
        &Testbeds::esnet_path(EsnetPath::Lan),
        lan_opts(),
    );
    assert!((38.0..47.0).contains(&g), "AMD LAN default: {g:.1} (paper: 42)");
}

#[test]
fn fig6_amd_wan_zerocopy_pacing_recovers_lan_performance() {
    let host = Testbeds::esnet_host(KernelVersion::L6_8);
    let wan = Testbeds::esnet_path(EsnetPath::Wan);
    let default = gbps(&host, &wan, wan_opts());
    let zc = gbps(&host, &wan, wan_opts().zerocopy().fq_rate(BitRate::gbps(40.0)));
    assert!(
        (17.0..28.0).contains(&default),
        "AMD WAN default: {default:.1} (paper: well below the 42 LAN)"
    );
    assert!((35.0..41.0).contains(&zc), "AMD WAN zc+pace40: {zc:.1} (paper: ≈40)");
    let gain = zc / default - 1.0;
    assert!(
        (0.45..1.10).contains(&gain),
        "AMD WAN zerocopy+pacing gain: {:.0}% (paper: 85%)",
        gain * 100.0
    );
}

// ---------- Figs. 7/8 (CPU utilisation) -----------------------------------

#[test]
fn fig7_lan_receiver_limited_wan_sender_limited() {
    let host = Testbeds::amlight_host(KernelVersion::L6_5);
    let lan = run1(&host, &Testbeds::amlight_path(AmLightPath::Lan), lan_opts());
    assert!(
        lan.receiver_cpu.peak_core_pct > 90.0,
        "LAN default: receiver core should peg, got {:.0}%",
        lan.receiver_cpu.peak_core_pct
    );
    let wan = run1(&host, &Testbeds::amlight_path(AmLightPath::Wan104ms), wan_opts());
    assert!(
        wan.sender_cpu.peak_core_pct > 90.0,
        "WAN default: sender core should peg, got {:.0}%",
        wan.sender_cpu.peak_core_pct
    );
    assert!(
        wan.receiver_cpu.peak_core_pct < 90.0,
        "WAN default: receiver should NOT be the bottleneck, got {:.0}%",
        wan.receiver_cpu.peak_core_pct
    );
}

#[test]
fn fig7_zerocopy_pacing_collapses_sender_cpu() {
    // §IV-B: "zerocopy with optimal settings for optmem_max and packet
    // pacing" — on kernel 6.5 the optimum is ~3.25 MB.
    let host = Testbeds::amlight_host(KernelVersion::L6_5)
        .with_optmem(SysctlConfig::optmem_3_25_mb());
    let path = Testbeds::amlight_path(AmLightPath::Wan25ms);
    let default = run1(&host, &path, wan_opts());
    let zc = run1(&host, &path, wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0)));
    assert!(
        zc.sender_cpu.app_pct < default.sender_cpu.app_pct / 2.0,
        "zerocopy should slash sender app CPU: {:.0}% -> {:.0}%",
        default.sender_cpu.app_pct,
        zc.sender_cpu.app_pct
    );
}

// ---------- Fig. 9 (optmem_max) --------------------------------------------

#[test]
fn fig9_default_optmem_cripples_zerocopy_and_pegs_the_sender() {
    let host = Testbeds::amlight_host(KernelVersion::L6_5).with_optmem(Bytes::kib(20));
    let path = Testbeds::amlight_path(AmLightPath::Wan104ms);
    let report = run1(&host, &path, wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0)));
    let g = report.sum_bitrate().as_gbps();
    assert!(g < 30.0, "20KB optmem on 104ms: {g:.1} (paper: severely affected)");
    assert!(
        report.sender_cpu.peak_core_pct > 90.0,
        "sender must be CPU-pegged in fallback mode, got {:.0}%",
        report.sender_cpu.peak_core_pct
    );
    assert!(
        report.zc_fallback_fraction > 0.9,
        "almost all sends must fall back, got {:.0}%",
        report.zc_fallback_fraction * 100.0
    );
}

#[test]
fn fig9_1mb_optmem_suffices_short_paths_not_104ms() {
    let host = Testbeds::amlight_host(KernelVersion::L6_5).with_optmem(Bytes::mib(1));
    let opts = || wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0));
    let short = gbps(&host, &Testbeds::amlight_path(AmLightPath::Wan25ms), opts());
    let long = gbps(&host, &Testbeds::amlight_path(AmLightPath::Wan104ms), opts());
    assert!((44.0..50.0).contains(&short), "1MB optmem at 25ms: {short:.1} (paper: ~50)");
    assert!(
        (32.0..45.5).contains(&long),
        "1MB optmem at 104ms: {long:.1} (paper: sags to ~40)"
    );
    assert!(short - long > 4.0, "the 104ms path must visibly sag");
}

#[test]
fn fig9_3_25mb_optmem_restores_the_long_path() {
    let host =
        Testbeds::amlight_host(KernelVersion::L6_5).with_optmem(SysctlConfig::optmem_3_25_mb());
    let g = gbps(
        &host,
        &Testbeds::amlight_path(AmLightPath::Wan104ms),
        wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0)),
    );
    assert!((44.0..50.0).contains(&g), "3.25MB optmem at 104ms: {g:.1} (paper: ~50)");
}

// ---------- Figs. 12/13 (kernel versions) ----------------------------------

#[test]
fn fig12_amd_kernel_ladder() {
    let lan = Testbeds::esnet_path(EsnetPath::Lan);
    let g515 = gbps(&Testbeds::esnet_host(KernelVersion::L5_15), &lan, lan_opts());
    let g65 = gbps(&Testbeds::esnet_host(KernelVersion::L6_5), &lan, lan_opts());
    let g68 = gbps(&Testbeds::esnet_host(KernelVersion::L6_8), &lan, lan_opts());
    assert!(g515 > 10.0, "5.15 LAN moved only {g515:.1} Gbps");
    let step1 = g65 / g515 - 1.0;
    let step2 = g68 / g65 - 1.0;
    assert!((0.07..0.18).contains(&step1), "5.15->6.5: +{:.0}% (paper: 12%)", step1 * 100.0);
    assert!((0.11..0.23).contains(&step2), "6.5->6.8: +{:.0}% (paper: 17%)", step2 * 100.0);
}

#[test]
fn fig13_intel_kernel_ladder_and_flat_paced_wan() {
    let lan = Testbeds::amlight_path(AmLightPath::Lan);
    let g515 = gbps(&Testbeds::amlight_host(KernelVersion::L5_15), &lan, lan_opts());
    let g68 = gbps(&Testbeds::amlight_host(KernelVersion::L6_8), &lan, lan_opts());
    let gain = g68 / g515 - 1.0;
    assert!(
        (0.20..0.35).contains(&gain),
        "Intel LAN 5.15->6.8: +{:.0}% (paper: 27%)",
        gain * 100.0
    );
    // WAN runs are pinned to the pacing rate on every kernel (§IV-E).
    let wan = Testbeds::amlight_path(AmLightPath::Wan25ms);
    let opts = || wan_opts().zerocopy().fq_rate(BitRate::gbps(50.0));
    let w515 = gbps(&Testbeds::amlight_host(KernelVersion::L5_15), &wan, opts());
    let w68 = gbps(&Testbeds::amlight_host(KernelVersion::L6_8), &wan, opts());
    // §IV-E says paced WAN throughput was "the same for all kernels";
    // in our calibration the 5.15 receiver ceiling (≈44 Gbps) sits
    // slightly below the 50 G pacing, so the spread is small but not
    // zero — see EXPERIMENTS.md.
    let spread = (w68 - w515).abs() / w68;
    assert!(
        spread < 0.25,
        "paced WAN should be nearly kernel-flat: 5.15={w515:.1} vs 6.8={w68:.1}"
    );
}

// ---------- §V-C extensions -------------------------------------------------

#[test]
fn ext_hw_gro_rescues_1500_byte_mtu() {
    let lan = PathSpec::lan("lan", BitRate::gbps(100.0));
    let host = |mtu: u64, hw: bool| {
        let kernel = if hw { KernelVersion::L6_11 } else { KernelVersion::L6_8 };
        let mut cfg = Testbeds::amlight_host(kernel);
        cfg.nic = NicModel::ConnectX7;
        cfg.offload = OffloadConfig::standard(Bytes::new(mtu));
        if hw {
            cfg.offload = cfg.offload.with_hw_gro(kernel);
        }
        cfg
    };
    let sw1500 = gbps(&host(1500, false), &lan, lan_opts());
    let hw1500 = gbps(&host(1500, true), &lan, lan_opts());
    assert!((20.0..29.0).contains(&sw1500), "1500B software GRO: {sw1500:.1} (paper: 24)");
    let gain = hw1500 / sw1500 - 1.0;
    assert!(
        gain > 1.0,
        "hardware GRO at 1500B: +{:.0}% (paper: 160%)",
        gain * 100.0
    );
    let sw9000 = gbps(&host(9000, false), &lan, lan_opts());
    let hw9000 = gbps(&host(9000, true), &lan, lan_opts());
    let gain9k = hw9000 / sw9000 - 1.0;
    assert!(
        (0.05..0.45).contains(&gain9k),
        "hardware GRO at 9000B: +{:.0}% (paper: modest)",
        gain9k * 100.0
    );
}

#[test]
fn ext_bigtcp_plus_zerocopy_on_custom_kernel() {
    let base = Testbeds::amlight_host(KernelVersion::L6_8);
    let mut custom = base.clone();
    custom.offload = custom
        .offload
        .with_big_tcp(dtnperf::linuxhost::offload::PAPER_BIG_TCP_SIZE, KernelVersion::L6_8)
        .with_max_skb_frags(45, KernelVersion::L6_8);
    let lan = Testbeds::amlight_path(AmLightPath::Lan);
    let default = gbps(&base, &lan, lan_opts());
    let combo = gbps(&custom, &lan, lan_opts().zerocopy().fq_rate(BitRate::gbps(85.0)));
    let gain = combo / default - 1.0;
    assert!(
        (0.35..0.90).contains(&gain),
        "BIG TCP + zerocopy: +{:.0}% (paper preliminary: up to 65%)",
        gain * 100.0
    );
}

// ---------- §III-D one-liners -----------------------------------------------

#[test]
fn iommu_pt_roughly_doubles_multistream_throughput() {
    let on = Testbeds::esnet_host(KernelVersion::L5_15);
    let mut off = on.clone();
    off.iommu_pt = false;
    let lan = Testbeds::esnet_path(EsnetPath::Lan);
    let opts = Iperf3Opts::new(4).omit(1).parallel(8);
    let g_on = gbps(&on, &lan, opts.clone());
    let g_off = gbps(&off, &lan, opts);
    let ratio = g_on / g_off;
    assert!(
        (1.7..2.6).contains(&ratio),
        "iommu=pt: {g_off:.0} -> {g_on:.0} Gbps (x{ratio:.2}; paper: 80 -> 181)"
    );
}

#[test]
fn stock_sysctls_strangle_long_paths() {
    let mut stock = Testbeds::amlight_host(KernelVersion::L6_8);
    stock.sysctl = SysctlConfig::stock();
    stock.sysctl.default_qdisc = dtnperf::linuxhost::Qdisc::Fq;
    let g = gbps(&stock, &Testbeds::amlight_path(AmLightPath::Wan104ms), wan_opts());
    assert!(g < 1.5, "6MB tcp_rmem over 104ms: {g:.2} Gbps (0.46 theoretical)");
}
