package main

// The detailed reports written beside the build outputs. The contract line on
// standard output carries only values; these carry what produced them: the
// environment, the per-interval series, the whole-run figures and the sample
// count (untraced), or the span summaries and counter deltas (traced).

type reportHeader struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	Seconds  int         `json:"seconds"`
	Env      environment `json:"env"`
	Correct  bool        `json:"correct"`
	Attempt  int64       `json:"attempted"`
	Failed   int64       `json:"failed"`
	Error    string      `json:"error,omitempty"`
}

func header(w *workload, seed int64, seconds int, env environment, attempted, failed int64, err error) reportHeader {
	h := reportHeader{Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Env: env,
		Correct: err == nil && failed == 0, Attempt: attempted, Failed: failed}
	if err != nil {
		h.Error = err.Error()
	}
	return h
}

func jmap(m map[string]float64) map[string]jfloat {
	out := make(map[string]jfloat, len(m))
	for k, v := range m {
		out[k] = jfloat(v)
	}
	return out
}

func gatedReport(w *workload, seed int64, seconds int, env environment, r gatedResult) any {
	return struct {
		reportHeader
		IntervalMs    int64               `json:"interval_ms"`
		QuietQuantile float64             `json:"quiet_quantile"`
		Metrics       map[string]jfloat   `json:"metrics"`
		P99Us         jfloat              `json:"lat_p99_us_ungated"`
		WholeRun      map[string]jfloat   `json:"whole_run"`
		Samples       int64               `json:"samples"`
		Audited       int64               `json:"audited"`
		SetupsS       []jfloat            `json:"setups_s"`
		BuildS        jfloat              `json:"first_build_s"`
		PreloadS      jfloat              `json:"first_preload_s"`
		WarmupS       jfloat              `json:"warmup_s"`
		Series        map[string][]jfloat `json:"series"`
	}{
		reportHeader:  header(w, seed, seconds, env, r.attempted, r.failed, r.err),
		IntervalMs:    intervalLen.Milliseconds(),
		QuietQuantile: quietQuantile,
		Metrics:       jmap(r.metrics),
		P99Us:         jfloat(r.p99Us),
		WholeRun:      jmap(r.whole),
		Samples:       r.samples,
		Audited:       r.audited,
		SetupsS:       jfloats(r.setups),
		BuildS:        jfloat(r.buildS),
		PreloadS:      jfloat(r.preloadS),
		WarmupS:       jfloat(r.warmupS),
		Series: map[string][]jfloat{
			"ops_per_s":     jfloats(r.series.OpsPerS),
			"lat_p50_us":    jfloats(r.series.P50Us),
			"lat_p99_us":    jfloats(r.series.P99Us),
			"cpu_us_per_op": jfloats(r.series.CPUUsPerOp),
		},
	}
}

func tracedReport(w *workload, seed int64, seconds int, env environment, r tracedResult) any {
	return struct {
		reportHeader
		Metrics  map[string]jfloat `json:"metrics"`
		Spans    []spanSummary     `json:"spans"`
		Recorded int               `json:"spans_recorded"`
		Counters layerCounters     `json:"counter_deltas"`
		Untraced map[string]jfloat `json:"untraced_slice"`
		Traced   map[string]jfloat `json:"traced_slice"`
		Notes    []string          `json:"notes,omitempty"`
	}{
		reportHeader: header(w, seed, seconds, env, r.attempted, r.failed, r.err),
		Metrics:      jmap(r.metrics),
		Spans:        r.spans,
		Recorded:     r.recorded,
		Counters:     r.counters,
		Untraced:     jmap(r.untraced),
		Traced:       jmap(r.traced),
		Notes:        r.notes,
	}
}
