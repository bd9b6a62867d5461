package main

import (
	"errors"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/protocol"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errFewSamples", err)
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989 (nearest rank)", v)
	}
	if v, err := percentile(xs, 0.5); err != nil || v != 499 {
		t.Fatalf("p50 of 0..999 = %v, %v; want 499", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of 19 samples: err = %v, want errFewSamples", err)
	}
}

func TestPercentileIgnoresOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	if v, _ := percentile(xs, 0.99); v != 1979 {
		t.Fatalf("p99 of shuffled 0..1999 = %v, want 1979", v)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Fatal("median of an even set")
	}
}

func TestBlockPercentile(t *testing.T) {
	// Three rounds of 1000 samples each; the middle one has a burst of slow
	// calls. The block median keeps the burst out of the reported figure.
	rounds := make([][]float64, 3)
	for i := range rounds {
		rounds[i] = make([]float64, 1000)
		for k := range rounds[i] {
			rounds[i][k] = float64(k)
		}
	}
	for k := 900; k < 1000; k++ {
		rounds[1][k] = 1e6
	}
	v, n, err := blockPercentile(rounds, 0.99)
	if err != nil || n != 3 || v != 989 {
		t.Fatalf("block p99 = %v over %d blocks, %v; want 989 over 3", v, n, err)
	}
	// Short rounds join up into blocks; a short remainder joins the last.
	short := [][]float64{rounds[0][:600], rounds[0][600:], rounds[2][:500]}
	if _, n, err := blockPercentile(short, 0.99); err != nil || n != 1 {
		t.Fatalf("short rounds: %d blocks, %v; want 1", n, err)
	}
	// A long round is cut into blocks in sample order.
	long := [][]float64{append(append(slices.Clone(rounds[0]), rounds[1]...), rounds[2][:700]...)}
	bs := blocks(long)
	if len(bs) != 2 || len(bs[0]) != 1000 || len(bs[1]) != 1700 || bs[1][0] != rounds[1][0] {
		t.Fatalf("long round: blocks of %d and %d samples", len(bs[0]), len(bs[len(bs)-1]))
	}
	if _, _, err := blockPercentile([][]float64{rounds[0][:999]}, 0.99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of one 999-sample block: err = %v, want errFewSamples", err)
	}
}

func TestBlockRate(t *testing.T) {
	// Rounds of 600 calls join up in pairs; the odd one out joins the last.
	rounds := []timedRound{{600, time.Second}, {600, time.Second}, {600, 3 * time.Second},
		{600, 3 * time.Second}, {600, 3 * time.Second}}
	// Blocks: 1200 calls in 2 s, then 1800 calls in 9 s.
	if v := blockRate(rounds); v != 400 {
		t.Fatalf("block rate = %v, want the median of 600/s and 200/s", v)
	}
	if v := blockRate(rounds[:1]); v != 600 {
		t.Fatalf("one short round: rate %v, want 600", v)
	}
}

func TestSeededInputsRepeat(t *testing.T) {
	target := core.Target{Usite: "FZJ", Vsite: "CLUSTER"}
	a, err := smallJobs(7, "consign", 0, 1, 50, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := smallJobs(7, "consign", 0, 1, 50, target, 1)
	c, _ := smallJobs(8, "consign", 0, 1, 50, target, 1)
	same, differ := true, false
	for i := range a {
		if a[i].tasks[0].stdout != b[i].tasks[0].stdout || string(a[i].inline) != string(b[i].inline) {
			same = false
		}
		if a[i].tasks[0].stdout != c[i].tasks[0].stdout {
			differ = true
		}
	}
	if !same || !differ {
		t.Fatalf("same seed repeats: %v, other seed differs: %v", same, differ)
	}
	ops1, jobs1 := readMix(7, "mix", 0, 0, 100, 10, 30)
	ops2, jobs2 := readMix(7, "mix", 0, 0, 100, 10, 30)
	for i := range ops1 {
		if ops1[i] != ops2[i] || jobs1[i] != jobs2[i] {
			t.Fatal("read mix differs for one seed")
		}
	}
}

func TestCheckDownloadCatchesFlippedByte(t *testing.T) {
	want := randomBytes(rand.New(rand.NewPCG(3, 4)), 3<<20+17)
	got := append([]byte(nil), want...)
	if err := checkDownload(got, want); err != nil {
		t.Fatalf("identical download rejected: %v", err)
	}
	got[2<<20+5] ^= 0x40
	err := checkDownload(got, want)
	if err == nil || !strings.Contains(err.Error(), "at byte 2097157") {
		t.Fatalf("flipped byte: err = %v", err)
	}
	if err := checkDownload(got[:len(got)-1], want); err == nil {
		t.Fatal("short download accepted")
	}
}

func TestCheckDurableCatchesMissingAck(t *testing.T) {
	recovered := []map[string]core.JobID{
		{"c1": "FZJ-r0-000001", "c2": "FZJ-r0-000002"},
		{"c3": "FZJ-r1-000001"},
	}
	acked := []core.JobID{"FZJ-r0-000001", "FZJ-r0-000002", "FZJ-r1-000001"}
	if errs := checkDurable(acked, recovered); len(errs) != 0 {
		t.Fatalf("complete recovery flagged: %v", errs)
	}
	errs := checkDurable(append(acked, "FZJ-r1-000002"), recovered)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "FZJ-r1-000002 found 0 times") {
		t.Fatalf("missing acked ID: errs = %v", errs)
	}
	recovered[1]["c4"] = "FZJ-r0-000001"
	if errs := checkDurable(acked, recovered); len(errs) != 1 {
		t.Fatalf("duplicated acked ID: errs = %v", errs)
	}
}

func backlog(id core.JobID, n int, final ajo.Status) []events.Event {
	evs := make([]events.Event, n)
	for i := range evs {
		evs[i] = events.Event{Job: id, Seq: uint64(i + 1), Status: ajo.StatusRunning}
	}
	evs[n-1].Terminal = true
	evs[n-1].Status = final
	return evs
}

func TestCheckBacklogCatchesGap(t *testing.T) {
	const id = core.JobID("FZJ-r0-000007")
	evs := backlog(id, 6, ajo.StatusSuccessful)
	if err := checkBacklog(id, ajo.StatusSuccessful, evs, 0); err != nil {
		t.Fatalf("contiguous backlog rejected: %v", err)
	}
	gap := append(append([]events.Event(nil), evs[:2]...), evs[3:]...)
	if err := checkBacklog(id, ajo.StatusSuccessful, gap, 0); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap in backlog: err = %v", err)
	}
	if err := checkBacklog(id, ajo.StatusSuccessful, evs[:5], 0); err == nil {
		t.Fatal("backlog without a terminal event accepted")
	}
	if err := checkBacklog(id, ajo.StatusFailed, evs, 0); err == nil {
		t.Fatal("backlog ending in the wrong status accepted")
	}
	if err := checkBacklog(id, ajo.StatusSuccessful, evs, 7); err == nil {
		t.Fatal("backlog whose length changed accepted")
	}
}

func TestCheckOutcomeAndList(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	p := planJob(rng, "job", 2, []byte("abc"), true, true, 1)
	if err := p.build(core.Target{Usite: "FZJ", Vsite: "CLUSTER"}); err != nil {
		t.Fatal(err)
	}
	o := &ajo.Outcome{Status: ajo.StatusFailed, Children: []*ajo.Outcome{
		{Action: p.importID, Status: ajo.StatusSuccessful},
		{Action: p.tasks[0].id, Status: ajo.StatusSuccessful, Stdout: []byte(p.tasks[0].stdout)},
		{Action: p.tasks[1].id, Status: ajo.StatusFailed, Stdout: []byte(p.tasks[1].stdout)},
	}}
	if err := checkOutcome(p, o); err != nil {
		t.Fatalf("planned outcome rejected: %v", err)
	}
	o.Children[1].Stdout = []byte("other\n")
	if err := checkOutcome(p, o); err == nil {
		t.Fatal("wrong stdout accepted")
	}
	plans := map[core.JobID]*jobPlan{"J1": p}
	if err := checkList([]protocol.JobInfo{{Job: "J1", Status: ajo.StatusFailed}}, plans, nil); err != nil {
		t.Fatalf("planned list rejected: %v", err)
	}
	if err := checkList([]protocol.JobInfo{{Job: "J1", Status: ajo.StatusSuccessful}}, plans, nil); err == nil {
		t.Fatal("list with the wrong status accepted")
	}
}

// TestRoundsPassChecks runs one round of every workload on a seed of its
// own and requires every call and output check to pass.
func TestRoundsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys four grids")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			r := newRunState(config{workload: name, seed: 424242, seconds: 1, dir: t.TempDir()})
			rd := &round{r: r, dir: filepath.Join(r.cfg.dir, "round-000")}
			if err := w(rd); err != nil {
				t.Fatalf("round: %v", err)
			}
			rd.finish()
			if r.failed.Load() != 0 || r.attempted.Load() == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted.Load(), r.failed.Load(), r.failures)
			}
		})
	}
}
