// Command gridbench is the grid benchmark: it deploys in-process UNICORE
// grids through internal/testbed, drives one named workload from a seed in
// closed loops, checks every output against the seeded inputs, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. See README.md.
//
//	gridbench --workload consign --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/core"
)

// workload runs one round: set-up, a fixed amount of timed work, the drive
// to idle, and every output check.
type workload func(rd *round) error

var workloads = map[string]workload{
	"consign": consignRound,
	"monitor": monitorRound,
	"stage":   stageRound,
	"relay":   relayRound,
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
}

// maxFailures bounds the failure messages echoed to stderr.
const maxFailures = 10

// runState accumulates every round of one run.
type runState struct {
	cfg config
	t0  time.Time

	mu       sync.Mutex
	setup    []float64   // s, one per round
	primary  [][]float64 // ms, the workload's p50/p99 samples, one slice per round
	nPrimary int
	detail   map[string][]float64 // ms, per-call-kind samples

	// Untraced rounds feed the end-to-end figures, traced rounds the layers.
	calls, tCalls    int64
	timed, tTimed    time.Duration
	timedRounds      []timedRound
	payload          int64
	alloc            uint64
	jobs             int64
	drive            time.Duration
	upBytes, dnBytes int64
	upTime, dnTime   time.Duration

	attempted, failed atomic.Int64
	failures          []string

	layers *layerAgg
	lt     layerTotals
}

// layerTotals are the whole-round figures of traced rounds: drive, journal
// histograms and growth, runtime GC.
type layerTotals struct {
	calls, consigns, payload int64
	jobs, events             int64
	drive                    time.Duration
	syncs, syncSecs          float64
	batches, batchEntries    float64
	journalBytes             int64
	gcPause                  time.Duration
	gcCPU, cpu               float64
	sessions                 int64
}

func newRunState(cfg config) *runState {
	return &runState{cfg: cfg, t0: time.Now(), detail: map[string][]float64{}, layers: newLayerAgg()}
}

func (r *runState) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: consign, monitor, stage or relay")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for journals and span files")
	flag.Parse()
	cfg.trace = trace != 0
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "gridbench: unknown workload %q (want consign, monitor, stage or relay)\n", cfg.workload)
		os.Exit(2)
	}
	r := newRunState(cfg)
	if err := r.run(w); err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// minRounds keeps enough set-ups to take a median of, and lets a traced run
// alternate untraced and traced rounds.
const minRounds = 3

// run repeats rounds until the timed phases add up to the requested seconds
// and, in an untraced run, the primary samples can carry a p99. The first
// round is a warm-up whose timings count towards neither.
func (r *runState) run(w workload) error {
	if err := os.MkdirAll(r.cfg.dir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(r.cfg.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	want := time.Duration(r.cfg.seconds * float64(time.Second))
	deadline := time.Now().Add(3*want + 60*time.Second)
	for i := 0; ; i++ {
		traced := r.cfg.trace && i%2 == 1
		rd := &round{r: r, n: i, warm: i == 0, dir: filepath.Join(root, fmt.Sprintf("round-%03d", i))}
		if traced {
			rd.tr = r.newTracer()
		}
		runtime.GC()
		if err := w(rd); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		rd.finish()
		done := r.timed+r.tTimed >= want && i+1 >= minRounds
		if r.cfg.trace {
			done = done && i%2 == 1
		} else {
			done = done && r.nPrimary >= blockSamples
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no complete measurement after %d rounds", i+1)
		}
	}
}

// round is one deployment of one run.
type round struct {
	r   *runState
	n   int
	dir string
	tr  *tracer // nil in untraced rounds
	// warm marks the first round of a run, which warms the process up: its
	// outputs are checked, but its timings feed no figure.
	warm bool
	g    *grid

	primary []float64

	setupStart time.Time
	timedStart time.Time
	ms         runtime.MemStats
	gc0        gcSample
	hist0      histTotals
	jb0        int64
}

// call runs one client call of the session of dn, through the tracer in a
// traced round, and returns its wall time.
func (rd *round) call(dn core.DN, k callKind, fn func() error) (time.Duration, error) {
	start := time.Now()
	var err error
	if rd.tr != nil {
		err = rd.tr.do(dn, k, fn)
	} else {
		err = fn()
	}
	rd.r.attempted.Add(1)
	return time.Since(start), err
}

// check counts one output check as an operation.
func (rd *round) check(err error) {
	rd.r.attempted.Add(1)
	if err != nil {
		rd.r.fail("round %d: %v", rd.n, err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// beginSetup starts the round's set-up clock.
func (rd *round) beginSetup() { rd.setupStart = time.Now() }

// deployed adopts the round's grid. A traced round's journal figures run
// from here to closeLayers, so they cover seeding and the drive as well.
func (rd *round) deployed(g *grid) {
	rd.g = g
	if rd.tr != nil {
		rd.hist0 = g.hist()
		rd.jb0 = g.journalBytes()
	}
}

// beginTimed ends set-up and starts the timed phase.
func (rd *round) beginTimed() {
	rd.r.mu.Lock()
	rd.r.setup = append(rd.r.setup, time.Since(rd.setupStart).Seconds())
	rd.r.mu.Unlock()
	if rd.tr != nil {
		rd.gc0 = readGC()
	}
	runtime.GC()
	runtime.ReadMemStats(&rd.ms)
	if rd.tr != nil {
		rd.tr.timed.Store(true)
	}
	rd.timedStart = time.Now()
}

// endTimed closes the timed phase: calls client calls moved payload bytes.
func (rd *round) endTimed(calls, payload int64) {
	wall := time.Since(rd.timedStart)
	if rd.tr != nil {
		rd.tr.timed.Store(false)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := rd.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if rd.tr != nil {
		r.tCalls += calls
		r.tTimed += wall
		r.lt.calls += calls
		r.lt.payload += payload
		gc := readGC()
		r.lt.gcPause += time.Duration(ms.PauseTotalNs - rd.ms.PauseTotalNs)
		r.lt.gcCPU += gc.gcCPU - rd.gc0.gcCPU
		r.lt.cpu += gc.cpu - rd.gc0.cpu
		return
	}
	if rd.warm {
		return
	}
	r.calls += calls
	r.timed += wall
	r.timedRounds = append(r.timedRounds, timedRound{calls, wall})
	r.payload += payload
	r.alloc += ms.TotalAlloc - rd.ms.TotalAlloc
}

// measured reports whether the round's timings feed the end-to-end figures.
func (rd *round) measured() bool { return rd.tr == nil && !rd.warm }

// finish adds a measured round's primary samples to the run's.
func (rd *round) finish() {
	if !rd.measured() {
		return
	}
	rd.r.mu.Lock()
	rd.r.primary = append(rd.r.primary, rd.primary)
	rd.r.nPrimary += len(rd.primary)
	rd.r.mu.Unlock()
}

// samples adds latency samples: primary ones feed p50_ms/p99_ms, and every
// sample also feeds its per-kind detail figure. Only measured rounds add.
func (rd *round) samples(kind string, primary bool, xs []float64) {
	if !rd.measured() {
		return
	}
	rd.r.mu.Lock()
	defer rd.r.mu.Unlock()
	rd.r.detail[kind] = append(rd.r.detail[kind], xs...)
	if primary {
		rd.primary = append(rd.primary, xs...)
	}
}

// driveJobs drives the virtual clock to idle, taking jobs to a terminal
// state, and records the drive. Outside a timed phase it starts from a
// collected heap, so the drive does not pay for garbage made before it.
func (rd *round) driveJobs(jobs int, collect bool) {
	if collect {
		runtime.GC()
	}
	start := time.Now()
	events := rd.g.d.Run(maxEvents)
	wall := time.Since(start)
	r := rd.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if rd.tr != nil {
		r.lt.jobs += int64(jobs)
		r.lt.events += int64(events)
		r.lt.drive += wall
		return
	}
	if rd.warm {
		return
	}
	r.jobs += int64(jobs)
	r.drive += wall
}

// closeLayers folds the traced round's journal figures, taken after the
// drive and the final sync, before the recovery check closes the stores.
func (rd *round) closeLayers(consigns int64, sessions int) {
	if rd.tr == nil {
		return
	}
	h := rd.g.hist()
	jb := rd.g.journalBytes()
	r := rd.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lt.consigns += consigns
	r.lt.sessions += int64(sessions)
	r.lt.syncs += h.syncs - rd.hist0.syncs
	r.lt.syncSecs += h.syncSecs - rd.hist0.syncSecs
	r.lt.batches += h.batches - rd.hist0.batches
	r.lt.batchEntries += h.batchEntries - rd.hist0.batchEntries
	r.lt.journalBytes += jb - rd.jb0
}

// gcSample is the runtime's cumulative CPU split.
type gcSample struct{ gcCPU, cpu float64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// histTotals are the program's own wall-clock journal histograms, summed
// over every origin of every site.
type histTotals struct{ syncs, syncSecs, batches, batchEntries float64 }

func (g *grid) hist() histTotals {
	var h histTotals
	for _, u := range g.d.Usites() {
		snaps, err := g.d.Metrics(u)
		if err != nil {
			continue
		}
		for _, s := range snaps {
			for _, p := range s.Metrics {
				switch p.Name {
				case "journal_sync_seconds":
					h.syncs += float64(p.Count)
					h.syncSecs += p.Sum
				case "journal_sync_batch_entries":
					h.batches += float64(p.Count)
					h.batchEntries += p.Sum
				}
			}
		}
	}
	return h
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result builds the last output line and prints the detail lines before it.
func (r *runState) result() (*result, error) {
	res := &result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var err error
	if r.cfg.trace {
		err = r.layerMetrics(res.Metrics)
	} else {
		err = r.endToEnd(res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// endToEnd fills the gated end-to-end metrics and prints the per-kind
// detail figures with their sample counts.
func (r *runState) endToEnd(m map[string]metric) error {
	p50, blocks, err := blockPercentile(r.primary, 0.50)
	if err != nil {
		return err
	}
	p99, _, err := blockPercentile(r.primary, 0.99)
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	secs := r.timed.Seconds()
	m["setup_s"] = metric{median(r.setup), "s"}
	m["p50_ms"] = metric{p50, "ms"}
	m["p99_ms"] = metric{p99, "ms"}
	m["ops_per_s"] = metric{blockRate(r.timedRounds), "1/s"}
	m["alloc_kb_per_op"] = metric{float64(r.alloc) / 1024 / float64(r.calls), "KiB"}
	m["alloc_b_per_byte"] = metric{float64(r.alloc) / float64(r.payload), "B/B"}
	m["heap_peak_mb"] = metric{float64(ms.HeapSys) / (1 << 20), "MiB"}

	fmt.Printf("gridbench workload=%s seed=%d rounds=%d timed_s=%.3f calls=%d primary_samples=%d blocks=%d jobs=%d\n",
		r.cfg.workload, r.cfg.seed, len(r.setup), secs, r.calls, r.nPrimary, blocks, r.jobs)
	fmt.Printf("  mb_s=%.3f jobs_per_s=%.1f\n", float64(r.payload)/1e6/secs, float64(r.jobs)/r.drive.Seconds())
	kinds := make([]string, 0, len(r.detail))
	for k := range r.detail {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := r.detail[k]
		line := fmt.Sprintf("  %-10s n=%-6d", k, len(xs))
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			if v, err := percentile(xs, q.p); err == nil {
				line += fmt.Sprintf(" %s_ms=%.4f", q.name, v)
			} else {
				line += fmt.Sprintf(" %s_ms=n/a", q.name)
			}
		}
		fmt.Println(line)
	}
	if r.upTime > 0 {
		fmt.Printf("  upload_mb_s=%.2f download_mb_s=%.2f\n",
			float64(r.upBytes)/1e6/r.upTime.Seconds(), float64(r.dnBytes)/1e6/r.dnTime.Seconds())
	}
	return nil
}

// layerMetrics fills the per-layer metrics of a traced run. Figures that
// only one workload exercises are printed on the detail lines instead.
func (r *runState) layerMetrics(m map[string]metric) error {
	a := r.layers
	us := func(key string) float64 { v, _ := a.avg(key); return v }
	calls := float64(a.count("calls"))
	payloadMB := float64(r.lt.payload) / (1 << 20)
	lt := r.lt
	syncUs := 0.0
	if lt.syncs > 0 {
		syncUs = lt.syncSecs / lt.syncs * 1e6
	}
	consignUs := us("njs.Consign")
	readKeys := []string{"njs.Poll", "njs.Events", "njs.Outcome", "njs.List"}
	var readSum float64
	var readN int64
	for _, k := range readKeys {
		readSum += a.sum(k)
		readN += a.count(k)
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("client.self_us", us("client.self"), "us")
	set("protocol.call_us", us("protocol.call"), "us")
	set("protocol.envelopes_per_op", a.sum("protocol.posts")/calls, "count")
	set("protocol.wire_bytes_per_op", a.sum("protocol.bytes")/calls, "B")
	set("protocol.wire_bytes_per_mb", a.sum("protocol.bytes")/payloadMB, "B/MiB")
	set("protocol.stream_dials", float64(a.dials.Load())/float64(lt.sessions), "count")
	set("gateway.self_us", us("gateway.self"), "us")
	set("gateway.backend_us", us("gateway.backend"), "us")
	set("njs.consign_us", consignUs, "us")
	set("njs.admit_us", consignUs-syncUs, "us")
	set("njs.read_us", readSum/float64(readN), "us")
	set("njs.drain_us_per_job", float64(lt.drive.Microseconds())/float64(lt.jobs), "us")
	set("njs.events_per_job", float64(lt.events)/float64(lt.jobs), "count")
	set("journal.sync_us", syncUs, "us")
	set("journal.syncs_per_consign", lt.syncs/float64(lt.consigns), "count")
	set("journal.entries_per_sync", lt.batchEntries/lt.batches, "count")
	set("journal.bytes_per_op", float64(lt.journalBytes)/calls, "B")
	set("journal.bytes_per_mb", float64(lt.journalBytes)/payloadMB, "B/MiB")
	set("runtime.gc_pause_ms_per_kop", ms(lt.gcPause)/(float64(lt.calls)/1000), "ms")
	set("runtime.gc_cpu_frac", lt.gcCPU/lt.cpu, "ratio")
	untraced := float64(r.calls) / r.timed.Seconds()
	traced := float64(r.tCalls) / r.tTimed.Seconds()
	set("trace.overhead_pct", (untraced-traced)/untraced*100, "%")

	fmt.Printf("gridbench workload=%s seed=%d traced rounds, %d calls, %d spans (%d dropped)\n",
		r.cfg.workload, r.cfg.seed, int64(calls), len(a.spans), a.dropped)
	// Layer figures only some workloads exercise.
	var detail []string
	addUs := func(name, key string) {
		if v, ok := a.avg(key); ok {
			detail = append(detail, fmt.Sprintf("%s=%.3f", name, v))
		}
	}
	addUs("gateway.split_relay_us", "gateway.split_relay")
	addUs("pool.self_us", "pool.self")
	if a.count("njs.StageChunk.bytes") > 0 {
		detail = append(detail, fmt.Sprintf("njs.stage_us_per_mb=%.3f", a.sum("njs.StageChunk")/(a.sum("njs.StageChunk.bytes")/(1<<20))))
	}
	if a.count("njs.FetchFileOwned.bytes") > 0 {
		detail = append(detail, fmt.Sprintf("njs.fetch_us_per_mb=%.3f", a.sum("njs.FetchFileOwned")/(a.sum("njs.FetchFileOwned.bytes")/(1<<20))))
	}
	if total := sumValues(a.consignsByReplica); total > 0 && len(a.consignsByReplica) > 1 {
		var most int64
		for _, n := range a.consignsByReplica {
			most = max(most, n)
		}
		detail = append(detail, fmt.Sprintf("pool.replica_share_max=%.4f", float64(most)/float64(total)))
	}
	addUs("staging.chunk_us", "staging.chunk")
	if v, ok := a.avg("staging.inflight"); ok {
		detail = append(detail, fmt.Sprintf("staging.inflight_mean=%.3f staging.retries=%d", v, int64(a.sum("staging.retries"))))
	}
	addUs("federation.forward_us", "federation.forward")
	if v, ok := a.avg("federation.forwarded"); ok {
		detail = append(detail, fmt.Sprintf("federation.forwarded_share=%.4f", v))
	}
	for _, d := range detail {
		fmt.Println("  " + d)
	}
	if len(a.spans) > 0 {
		path := filepath.Join(r.cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", r.cfg.workload, r.cfg.seed))
		if err := writeSpans(path, a.spans); err != nil {
			return err
		}
		fmt.Printf("  spans written to %s\n", path)
	}
	return nil
}

func sumValues(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}
