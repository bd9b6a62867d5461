package main

import (
	"context"
	"sync"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/pki"
)

// consignPerSession is the fixed admission work of one consign round.
const consignPerSession = 1000

// consignRound: two sessions submit seeded small AJOs to the durable
// 2-replica pool; the clock is then driven to idle, every job is verified,
// and every journal is recovered to check that no acked job was lost.
func consignRound(rd *round) error {
	r := rd.r
	rd.beginSetup()
	g, err := newPoolGrid(rd.dir, rd.tr)
	if err != nil {
		return err
	}
	defer g.close()
	rd.deployed(g)
	target := core.Target{Usite: poolSite, Vsite: poolVsite}
	var creds [2]*pki.Credential
	var sessions [2]*client.Session
	var plans [2][]*jobPlan
	for i := range sessions {
		if creds[i], err = g.user(i); err != nil {
			return err
		}
		if sessions[i], err = g.session(creds[i], poolSite); err != nil {
			return err
		}
		if plans[i], err = smallJobs(r.cfg.seed, "consign", rd.n, i, consignPerSession, target, 1); err != nil {
			return err
		}
	}

	rd.beginTimed()
	var acked [2][]core.JobID
	var lat [2][]float64
	var payload [2]int64
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, dn := sessions[i], creds[i].DN()
			acked[i] = make([]core.JobID, len(plans[i]))
			for k, p := range plans[i] {
				var id core.JobID
				d, err := rd.call(dn, callKind{name: "submit", serial: true}, func() (err error) {
					id, err = s.Submit(context.Background(), p.job)
					return err
				})
				if err != nil {
					r.fail("submit %s: %v", p.name, err)
					continue
				}
				acked[i][k] = id
				lat[i] = append(lat[i], ms(d))
				payload[i] += int64(len(p.inline))
			}
		}(i)
	}
	wg.Wait()
	rd.endTimed(int64(len(lat[0])+len(lat[1])), payload[0]+payload[1])
	rd.samples("ack", true, append(lat[0], lat[1]...))

	rd.driveJobs(len(lat[0])+len(lat[1]), true)
	verifyJobs(rd, sessions[:], creds[:], plans[:], acked[:])
	if err := g.syncJournals(); err != nil {
		return err
	}
	rd.closeLayers(int64(len(lat[0])+len(lat[1])), 2)
	return durableCheck(rd, append(acked[0], acked[1]...))
}

// verifyJobs reads back every acked job's outcome through the session that
// submitted it (a forwarded job through its origin gateway), one goroutine
// per session, and compares it with the plan. The reads are timed as
// verify samples.
func verifyJobs(rd *round, sessions []*client.Session, creds []*pki.Credential, plans [][]*jobPlan, acked [][]core.JobID) {
	var wg sync.WaitGroup
	lat := make([][]float64, len(sessions))
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k, p := range plans[i] {
				id := acked[i][k]
				if id == "" {
					continue
				}
				var o *ajo.Outcome
				d, err := rd.call(creds[i].DN(), callKind{name: "outcome", serial: true}, func() (err error) {
					o, err = sessions[i].Outcome(context.Background(), id)
					return err
				})
				if err == nil {
					lat[i] = append(lat[i], ms(d))
					err = checkOutcome(p, o)
				}
				if err != nil {
					rd.r.fail("round %d: %s (%s): %v", rd.n, p.name, id, err)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range lat {
		rd.samples("verify", false, lat[i])
	}
}

// durableCheck crashes every NJS of the round, rebuilds each from its
// journal, and requires every acked job exactly once. njs.Recover replays
// about a thousand admissions a second, so the check runs on the first
// round of every run only: that keeps a run within its time budget and
// still checks thousands of acks per run.
func durableCheck(rd *round, acked []core.JobID) error {
	if rd.n != 0 {
		return nil
	}
	var ids []core.JobID
	for _, id := range acked {
		if id != "" {
			ids = append(ids, id)
		}
	}
	recovered, err := rd.g.recoverAll()
	if err != nil {
		return err
	}
	errs := checkDurable(ids, recovered)
	rd.r.attempted.Add(int64(len(ids)))
	for _, e := range errs {
		rd.r.fail("round %d: durable: %v", rd.n, e)
	}
	return nil
}
