"""Names of the benchmark's workloads, and its metrics with their units."""

WORKLOADS = ("ded_contact", "curve_ratio", "series_fit")

# name -> unit, in the order the results print them
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "pass_frac": "1", "rel_err_max": "1",
}
PER_LAYER = {
    "electrolyte.f_ded_total_s": "s",
    "electrolyte.roundtrip_r3_s": "s",
    "electrolyte.roundtrip_r4_s": "s",
    "electrolyte.roundtrip_r5_s": "s",
    "electrolyte.plane_roundtrip_r5_s": "s",
    "electrolyte.plane_roundtrip_r6_s": "s",
    "electrolyte.plane_roundtrip_r7_s": "s",
    "electrolyte.plane_roundtrip_r8_s": "s",
    "electrolyte.f1_ded_us": "us",
    "electrolyte.accuracy_warnings": "count",
    "scalar.f_sc_total_contact_us": "us",
    "scalar.f_sc_total_far_us": "us",
    "drude.capacitance_coeffs_contact_us": "us",
    "drude.f_dvd_total_us": "us",
    "rational.f_approx_us": "us",
    "rational.phi_rm_vec_ms": "ms",
    "rational.refit_warm_s": "s",
    "rational.max_deviation_s": "s",
    "geometry.from_invariants_us": "us",
    "cli.point_work_s": "s",
    "cli.pool_efficiency": "1",
    "cli.repeat_share": "1",
    "cli.repeat_work_share": "1",
    "trace_overhead": "1",
}
