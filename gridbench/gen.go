package main

// Seeded generation of every input the program receives: job shapes, inline
// payloads, read-mix order, file sizes and file contents. Each purpose draws
// from its own PCG stream keyed by (seed, purpose, round, session), so the
// same seed gives the same inputs whatever else a run does.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/resources"
)

// stream returns the PCG stream for one purpose of one round and session.
func stream(seed uint64, purpose string, round, session int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", purpose, round, session)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// randomBytes fills n bytes from rng: every byte is drawn, so a reordered,
// lost or duplicated chunk changes the content (unlike a periodic pattern).
func randomBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n+7)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], rng.Uint64())
	}
	return out[:n:n]
}

// between draws uniformly from [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.IntN(hi-lo+1) }

// taskPlan is one script task and the stdout it must produce.
type taskPlan struct {
	id     ajo.ActionID
	stdout string
}

// jobPlan is one generated job together with everything the verifier
// expects of it. The expectations come from the plan alone, never from
// what the program reports.
type jobPlan struct {
	name   string
	inline []byte // inline import into in.dat; nil for none
	result bool   // the first task copies in.dat to result.dat
	fail   bool   // the last task fails on purpose: the job ends FAILED
	procs  int
	tasks  []taskPlan

	importID ajo.ActionID
	job      *ajo.AbstractJob
}

// planJob draws one job shape: 1–3 chained script tasks, each echoing a
// unique token, optionally preceded by an inline import.
func planJob(rng *rand.Rand, name string, tasks int, inline []byte, result, fail bool, procs int) *jobPlan {
	p := &jobPlan{name: name, inline: inline, result: result, fail: fail, procs: procs}
	for k := 0; k < tasks; k++ {
		p.tasks = append(p.tasks, taskPlan{stdout: fmt.Sprintf("%s-t%d-%08x\n", name, k, rng.Uint32())})
	}
	return p
}

// status is the terminal status the plan must reach.
func (p *jobPlan) status() ajo.Status {
	if p.fail {
		return ajo.StatusFailed
	}
	return ajo.StatusSuccessful
}

// build turns the plan into an AJO for target and records the action IDs
// the verifier looks up later.
func (p *jobPlan) build(target core.Target) error {
	b := client.NewJob(p.name, target)
	req := resources.Request{Processors: p.procs, RunTime: 10 * time.Minute}
	var prev ajo.ActionID
	if p.inline != nil {
		p.importID = b.ImportBytes("stage-in", p.inline, "in.dat")
		prev = p.importID
	}
	for k := range p.tasks {
		script := "cpu 1m\necho " + p.tasks[k].stdout[:len(p.tasks[k].stdout)-1] + "\n"
		if k == 0 && p.result {
			script = "cp in.dat result.dat\n" + script
		}
		if k == len(p.tasks)-1 && p.fail {
			script += "fail planned\n"
		}
		id := b.Script(fmt.Sprintf("step%d", k), script, req)
		if prev != "" {
			b.After(prev, id)
		}
		p.tasks[k].id = id
		prev = id
	}
	job, err := b.Build()
	if err != nil {
		return fmt.Errorf("build %s: %w", p.name, err)
	}
	p.job = job
	return nil
}

// smallJobs plans n control-plane jobs for one session: 1–3 tasks, about a
// third with an inline import of up to 16 KiB, one in twenty failing on
// purpose. An inline import carries at least one byte: the AJO validator
// reads an empty inline source as no source and refuses the job.
func smallJobs(seed uint64, purpose string, round, session, n int, target core.Target, procs int) ([]*jobPlan, error) {
	rng := stream(seed, purpose, round, session)
	plans := make([]*jobPlan, n)
	for i := range plans {
		var inline []byte
		if rng.IntN(3) == 0 {
			inline = randomBytes(rng, between(rng, 1, 16<<10))
		}
		name := fmt.Sprintf("%s-%d-%d-%05d", purpose, round, session, i)
		plans[i] = planJob(rng, name, between(rng, 1, 3), inline, false, rng.IntN(20) == 0, procs)
		if err := plans[i].build(target); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// resultJobs plans the finished-job pool the read mix runs against: every
// job imports a 4–64 KiB seeded payload and copies it to result.dat, and one
// in five fails on purpose after doing so.
func resultJobs(seed uint64, purpose string, round, session, n int, target core.Target) ([]*jobPlan, error) {
	rng := stream(seed, purpose, round, session)
	plans := make([]*jobPlan, n)
	for i := range plans {
		inline := randomBytes(rng, between(rng, 4<<10, 64<<10))
		name := fmt.Sprintf("%s-%d-%d-%05d", purpose, round, session, i)
		plans[i] = planJob(rng, name, between(rng, 1, 3), inline, true, rng.IntN(5) == 0, 1)
		if err := plans[i].build(target); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// readOp is one call of the read mix.
type readOp int

const (
	opStatus readOp = iota
	opEvents
	opOutcome
	opFetch
	opList
	opConsign // only in the relay mix
)

var readOpNames = [...]string{"status", "events", "outcome", "fetch", "list", "consign"}

func (o readOp) String() string { return readOpNames[o] }

// readMix draws n read-mix calls over a pool of jobs: Status 40%, Events
// backlog 35%, Outcome 10%, FetchFile 10%, List 5%. With consignPct > 0 that
// share of the calls become consigns instead (the relay mix). Status and
// Events are the two fast modes; with Status below half, the median falls
// inside the Events mode rather than on the edge between the two, where it
// would flip from mode to mode with the drawn mix.
func readMix(seed uint64, purpose string, round, session, n, pool, consignPct int) (ops []readOp, jobs []int) {
	rng := stream(seed, purpose, round, session)
	ops = make([]readOp, n)
	jobs = make([]int, n)
	for i := range ops {
		if consignPct > 0 && rng.IntN(100) < consignPct {
			ops[i] = opConsign
			continue
		}
		switch x := rng.IntN(100); {
		case x < 40:
			ops[i] = opStatus
		case x < 75:
			ops[i] = opEvents
		case x < 85:
			ops[i] = opOutcome
		case x < 95:
			ops[i] = opFetch
		default:
			ops[i] = opList
		}
		jobs[i] = rng.IntN(pool)
	}
	return ops, jobs
}
