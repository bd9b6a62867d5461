package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// Fixed work of one monitor round.
const (
	monitorPool     = 200   // finished jobs per user
	monitorReads    = 10000 // read-mix calls per session
	monitorSessions = 2
)

// readPool is one session's pool of finished jobs and what each must read
// back as.
type readPool struct {
	s     *client.Session
	dn    core.DN
	plans []*jobPlan
	ids   []core.JobID
	byID  map[core.JobID]*jobPlan
	// backlog is the event backlog length first read for each job: every
	// later read must return the same length.
	backlog []int
	// extra holds jobs the session consigned during the timed phase (the
	// relay mix); List must show them, in any state.
	extra map[core.JobID]bool
	// byOp holds the timed read latencies (ms) per kind of call.
	byOp map[readOp][]float64
}

// flush reports the per-kind read latencies as detail samples.
func (p *readPool) flush(rd *round) {
	for op, xs := range p.byOp {
		rd.samples("read."+op.String(), false, xs)
	}
}

// seedPool submits the planned jobs through the session (timed as seed
// acknowledgements) and returns the pool. The caller drives the clock.
func seedPool(rd *round, s *client.Session, cred *pki.Credential, plans []*jobPlan) (*readPool, error) {
	p := &readPool{s: s, dn: cred.DN(), plans: plans, byID: map[core.JobID]*jobPlan{},
		backlog: make([]int, len(plans)), extra: map[core.JobID]bool{}, byOp: map[readOp][]float64{}}
	var lat []float64
	for _, plan := range plans {
		var id core.JobID
		d, err := rd.call(p.dn, callKind{name: "submit", serial: true}, func() (err error) {
			id, err = s.Submit(context.Background(), plan.job)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("seeding %s: %w", plan.name, err)
		}
		lat = append(lat, ms(d))
		p.ids = append(p.ids, id)
		p.byID[id] = plan
	}
	rd.samples("seed_ack", false, lat)
	return p, nil
}

// read performs one read-mix call against job j of the pool, then checks
// the reply outside the timed call. It returns the call's wall time and the
// payload bytes it moved.
func (p *readPool) read(rd *round, op readOp, j int, split bool) (time.Duration, int64, error) {
	ctx := context.Background()
	id, plan := p.ids[j], p.plans[j]
	var (
		sum  ajo.Summary
		evs  protocol.EventsReply
		out  *ajo.Outcome
		data []byte
		jobs []protocol.JobInfo
	)
	d, err := rd.call(p.dn, callKind{name: op.String(), serial: true, split: split}, func() (err error) {
		switch op {
		case opStatus:
			sum, err = p.s.Status(ctx, id)
		case opEvents:
			evs, err = p.s.Events(ctx, protocol.SubscribeRequest{Job: id})
		case opOutcome:
			out, err = p.s.Outcome(ctx, id)
		case opFetch:
			data, err = p.s.FetchFile(ctx, id, "result.dat")
		case opList:
			jobs, err = p.s.List(ctx)
		default:
			err = fmt.Errorf("unknown read op %d", op)
		}
		return err
	})
	if err != nil {
		return d, 0, fmt.Errorf("%s %s: %w", op, id, err)
	}
	p.byOp[op] = append(p.byOp[op], ms(d))
	switch op {
	case opStatus:
		return d, 0, checkSummary(plan, sum)
	case opEvents:
		if evs.Gap {
			return d, 0, fmt.Errorf("%s: backlog reports a gap", id)
		}
		if err := checkBacklog(id, plan.status(), evs.Events, p.backlog[j]); err != nil {
			return d, 0, err
		}
		p.backlog[j] = len(evs.Events)
		return d, 0, nil
	case opOutcome:
		return d, 0, checkOutcome(plan, out)
	case opFetch:
		return d, int64(len(data)), checkFetch(plan, data)
	default:
		return d, 0, checkList(jobs, p.byID, p.extra)
	}
}

// monitorRound: two sessions run the read mix against a seeded pool of
// finished jobs (one in five failed on purpose) on the durable 2-replica
// pool. The timed phase touches no journal.
func monitorRound(rd *round) error {
	r := rd.r
	rd.beginSetup()
	g, err := newPoolGrid(rd.dir, rd.tr)
	if err != nil {
		return err
	}
	defer g.close()
	rd.deployed(g)
	target := core.Target{Usite: poolSite, Vsite: poolVsite}
	pools := make([]*readPool, monitorSessions)
	errs := make([]error, monitorSessions)
	var wg sync.WaitGroup
	for i := range pools {
		cred, err := g.user(i)
		if err != nil {
			return err
		}
		s, err := g.session(cred, poolSite)
		if err != nil {
			return err
		}
		plans, err := resultJobs(r.cfg.seed, "monitor", rd.n, i, monitorPool, target)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pools[i], errs[i] = seedPool(rd, s, cred, plans)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	rd.driveJobs(monitorPool*monitorSessions, true)

	rd.beginTimed()
	lat := make([][]float64, monitorSessions)
	moved := make([]int64, monitorSessions)
	for i, p := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops, jobs := readMix(r.cfg.seed, "monitor-mix", rd.n, i, monitorReads, monitorPool, 0)
			for k, op := range ops {
				d, n, err := p.read(rd, op, jobs[k], false)
				if err != nil {
					r.fail("round %d: %v", rd.n, err)
					continue
				}
				lat[i] = append(lat[i], ms(d))
				moved[i] += n
			}
		}()
	}
	wg.Wait()
	var calls, payload int64
	for i := range lat {
		calls += int64(len(lat[i]))
		payload += moved[i]
		rd.samples("read", true, lat[i])
		pools[i].flush(rd)
	}
	rd.endTimed(calls, payload)
	if err := g.syncJournals(); err != nil {
		return err
	}
	rd.closeLayers(monitorPool*monitorSessions, monitorSessions)
	return nil
}
