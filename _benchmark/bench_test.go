package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"locality/internal/obs/trace"
)

func TestQuantileNearestRank(t *testing.T) {
	var l latencies
	for i := 10; i >= 1; i-- { // unsorted on purpose
		l.add(time.Duration(i) * time.Millisecond)
	}
	if l.n() != 10 {
		t.Fatalf("n = %d, want 10", l.n())
	}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(l.ms, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); !math.IsInf(got, 1) {
		t.Errorf("quantile of an empty sample = %v, want +Inf", got)
	}
}

func TestFailedRequestIsAMiss(t *testing.T) {
	var l latencies
	for i := 1; i <= 9; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	before := map[float64]float64{}
	for _, q := range []float64{0.5, 0.9} {
		before[q] = quantile(l.ms, q)
	}
	// A refused request answered in 0.1ms must not pull any quantile down.
	l.miss()
	if l.n() != 10 || l.misses != 1 {
		t.Fatalf("n = %d misses = %d, want 10 and 1", l.n(), l.misses)
	}
	for q, b := range before {
		if got := quantile(l.ms, q); got < b {
			t.Errorf("quantile(%v) fell from %v to %v after a miss", q, b, got)
		}
	}
	if got := quantile(l.ms, 0.9); got != 9 {
		t.Errorf("p90 with one miss in ten = %v, want 9", got)
	}
	l.miss()
	if got := quantile(l.ms, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with two misses in eleven = %v, want +Inf", got)
	}
	if got, want := failedShare(2, 11), 3.0/12; got != want {
		t.Errorf("failedShare(2, 11) = %v, want %v", got, want)
	}
	if failedShare(0, 100) <= 0 {
		t.Error("failedShare with no failures must stay above 0")
	}
}

func TestParseProc(t *testing.T) {
	// The command name holds spaces and parentheses; utime=1234, stime=566.
	stat := "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 566 0 0 20 0 9 0 12345 100000 2000"
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18.0; math.Abs(cpu-want) > 1e-9 {
		t.Errorf("cpu = %v s, want %v", cpu, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed without error")
	}
	status := "Name:\tlocalityd\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	peak, err := parseStatusMB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if peak != 50 {
		t.Errorf("peak RSS = %v MB, want 50", peak)
	}
	rss, err := parseStatusMB(status, "VmRSS")
	if err != nil {
		t.Fatal(err)
	}
	if want := 40000.0 / 1024; rss != want {
		t.Errorf("RSS = %v MB, want %v", rss, want)
	}
	if _, err := parseStatusMB("Name:\tx\n", "VmHWM"); err == nil {
		t.Error("status without VmHWM parsed without error")
	}
}

func TestSelfTimesFromSpanTree(t *testing.T) {
	const ms = int64(time.Millisecond)
	span := func(id, parent, name string, start, end int64) trace.Record {
		return trace.Record{Type: "span", Trace: "t", Span: id, Parent: parent, Name: name,
			Start: 1_000_000 + start*ms, Dur: (end - start) * ms}
	}
	// root [0,100) has children [10,30) and [20,50), which overlap, and
	// [90,120), which overruns it; the covered part is [10,50) and [90,100).
	st := selfTimes([]trace.Record{
		span("r", "", "http.submit", 0, 100),
		span("a", "r", "pool.admit", 10, 30),
		span("b", "r", "pool.admit", 20, 50),
		span("c", "r", "store.get", 90, 120),
		span("d", "a", "store.get", 12, 14),
	})
	check := func(name string, want ...float64) {
		t.Helper()
		got := selfUS(st[name])
		if len(got) != len(want) {
			t.Fatalf("%s: %d spans, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i]*1e3 {
				t.Errorf("%s[%d] self = %vus, want %vms", name, i, got[i], want[i])
			}
		}
	}
	check("http.submit", 50)
	check("pool.admit", 18, 30)
	check("store.get", 2, 30)
	if got := durUS(st["http.submit"]); got[0] != 100e3 {
		t.Errorf("http.submit duration = %vus, want 100ms", got[0])
	}
	if got := st.within("pool.admit", 1_000_000+15*ms, 1_000_000+100*ms); len(got) != 1 {
		t.Errorf("within the window: %d pool.admit spans, want 1", len(got))
	}
}

func TestDigestCatchesOneByteChange(t *testing.T) {
	want, err := parseDigests(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range suiteIDs {
		if _, ok := want[id]; !ok {
			t.Errorf("no committed digest for %s", id)
		}
	}
	out, err := render("E4", quick(digestSeed))
	if err != nil {
		t.Fatal(err)
	}
	res := &result{correct: true}
	checkDigest(res, want, "E4", out)
	if !res.correct {
		t.Fatalf("committed E4 digest does not match: %v", res.problems)
	}
	b := []byte(out)
	b[len(b)/2] ^= 1
	checkDigest(res, want, "E4", string(b))
	if res.correct || len(res.problems) != 1 {
		t.Errorf("a one-byte change passed the digest check (correct=%v, problems=%v)", res.correct, res.problems)
	}
}

func TestParseDigestsRejectsMalformedLines(t *testing.T) {
	if _, err := parseDigests("E1 abc\n"); err == nil {
		t.Error("short digest parsed without error")
	}
	got, err := parseDigests("# comment\n\nE1 " + sha("x") + " # trailing\n")
	if err != nil || got["E1"] != sha("x") {
		t.Errorf("parseDigests = %v, %v", got, err)
	}
}

func TestLogTailFindsListenAddressAcrossWrites(t *testing.T) {
	l := &logTail{addr: make(chan string, 1)}
	for _, chunk := range []string{
		"2026/10/17 02:00:00 localityd: loading store\n2026/10/17 02:00:00 localityd list",
		"ening on 127.0.0.1:40",
		"123\n2026/10/17 02:00:01 later line listening on 127.0.0.1:1\n",
	} {
		if _, err := l.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case got := <-l.addr:
		if got != "127.0.0.1:40123" {
			t.Errorf("address = %q, want 127.0.0.1:40123", got)
		}
	default:
		t.Fatal("no address announced")
	}
	if len(l.addr) != 0 {
		t.Error("a second listening line was announced")
	}
}

func TestParseStatSteal(t *testing.T) {
	stat := "cpu  100 5 20 800 3 0 2 70 0 0\ncpu0 50 2 10 400 1 0 1 35 0 0\n"
	total, steal, err := parseStatSteal(stat)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 || steal != 70 {
		t.Errorf("total, steal = %d, %d; want 1000, 70", total, steal)
	}
	if _, _, err := parseStatSteal("intr 1 2 3\n"); err == nil {
		t.Error("stat without an aggregate cpu line parsed without error")
	}
}

func TestCalmSlicesAreChosenBySteal(t *testing.T) {
	ms := time.Millisecond
	slice := func(steal float64, lat ...time.Duration) *loadResult {
		return &loadResult{lat: lat, steal: steal, cpuS: float64(len(lat)) * 0.002}
	}
	// The stolen slices hold the slow requests; the calm quarter is chosen
	// by steal alone and kept in run order.
	p := phase{
		slice(0.20, 9*ms, 9*ms),
		slice(0.01, 1*ms, 2*ms),
		slice(0.30, 8*ms, -1),
		slice(0.02, 3*ms, 4*ms),
		slice(0.40, 9*ms, 9*ms),
		slice(0.05, 7*ms, 7*ms),
		slice(0.25, 9*ms, 9*ms),
		slice(0.10, 9*ms, 9*ms),
	}
	calm := p.calm()
	if len(calm) != 2 || calm[0] != p[1] || calm[1] != p[3] {
		t.Fatalf("calm slices = %v, want slices 1 and 3", calm)
	}
	l := missAware(calm.lat())
	if got := quantile(l.ms, 0.5); got != 2 {
		t.Errorf("calm p50 = %v, want 2", got)
	}
	if got := calm.cpuPerRequest(); math.Abs(got-2) > 1e-9 {
		t.Errorf("calm CPU per request = %v ms, want 2", got)
	}
	// A miss in a stolen slice still counts against the whole phase.
	if all := missAware(p.lat()); all.misses != 1 || all.n() != 16 {
		t.Errorf("whole phase: n = %d, misses = %d; want 16 and 1", all.n(), all.misses)
	}
	if got := (phase{slice(0.5, ms)}).calm(); len(got) != 1 {
		t.Errorf("a one-slice phase keeps %d slices, want 1", len(got))
	}
}

func TestGeomeanWeighsOperationsEqually(t *testing.T) {
	if got := geomean(1, 4); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(1, 4) = %v, want 2", got)
	}
	if got := geomean(3); math.Abs(got-3) > 1e-12 {
		t.Errorf("geomean(3) = %v, want 3", got)
	}
	if got := geomean(1, math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("geomean with a miss = %v, want +Inf", got)
	}
}

func TestReportPrintsExactlyTheManifestMetrics(t *testing.T) {
	res := &result{correct: true, attempted: 3}
	res.add("setup_s", "s", 1.5)
	res.addQ("p50_ms", "ms", math.Inf(1), 3)
	res.add("extra_ms", "ms", 7)
	want := []manifestMetric{{"setup_s", "s"}, {"p50_ms", "ms"}}
	var out bytes.Buffer
	if err := report(&out, "suite", env{}, t.TempDir(), want, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want a detail line and a result line", len(lines))
	}
	var detail struct {
		Ledger  map[string]map[string]any `json:"ledger"`
		Samples map[string]int            `json:"samples"`
	}
	var last struct {
		Correct   *bool                     `json:"correct"`
		Attempted *int                      `json:"attempted"`
		Failed    *int                      `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &detail); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != 2 {
		t.Fatalf("result line = %s", lines[1])
	}
	if v := last.Metrics["p50_ms"]["value"]; v != float64(missMS) {
		t.Errorf("a quantile on a miss printed as %v, want %d", v, missMS)
	}
	if _, ok := detail.Ledger["extra_ms"]; !ok || len(detail.Ledger) != 1 {
		t.Errorf("ledger = %v, want only extra_ms", detail.Ledger)
	}
	if detail.Samples["p50_ms"] != 3 {
		t.Errorf("samples = %v, want p50_ms: 3", detail.Samples)
	}

	missing := append(want, manifestMetric{"cpu_ms", "ms"})
	if err := report(&bytes.Buffer{}, "suite", env{}, t.TempDir(), missing, res); err == nil {
		t.Error("a manifest metric the run did not measure was not an error")
	}
	wrongUnit := []manifestMetric{{"setup_s", "ms"}}
	if err := report(&bytes.Buffer{}, "suite", env{}, t.TempDir(), wrongUnit, res); err == nil {
		t.Error("a metric in another unit than the manifest's was not an error")
	}
}

func TestBenchmarkManifestParses(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		t.Fatalf("manifest has %d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	found := false
	for _, mm := range m.EndToEnd {
		found = found || mm == manifestMetric{"setup_s", "s"}
	}
	if !found {
		t.Error("no end-to-end setup_s in s")
	}
}
