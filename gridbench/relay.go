package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/pki"
)

// Fixed work of one relay round.
const (
	relayPool     = 100  // finished jobs of the split-site user
	relayMixOps   = 2000 // split-site calls: the read mix with 30% consigns
	relayConsigns = 30   // percent of the split-site mix that consigns
	relayForwards = 1000 // consigns at the small site, all forwarded
	relayProcs    = 8    // more processors than the small site has
)

// relayRound: one session runs the read mix with consigns mixed in at the
// §5.2 split site ZIB (every call crosses Front → loopback TCP → Inner); the
// other submits jobs at FZJ that only DWD can run, so federation forwards
// every one. All jobs are then driven, verified, and recovered.
func relayRound(rd *round) error {
	r := rd.r
	rd.beginSetup()
	g, err := newRelayGrid(rd.dir, rd.tr)
	if err != nil {
		return err
	}
	defer g.close()
	rd.deployed(g)
	credA, err := g.user(0)
	if err != nil {
		return err
	}
	credB, err := g.user(1)
	if err != nil {
		return err
	}
	sA, err := g.session(credA, splitSite)
	if err != nil {
		return err
	}
	sB, err := g.session(credB, smallSite)
	if err != nil {
		return err
	}
	zib := core.Target{Usite: splitSite, Vsite: relayVsite}
	seed, err := resultJobs(r.cfg.seed, "relay-pool", rd.n, 0, relayPool, zib)
	if err != nil {
		return err
	}
	ops, jobs := readMix(r.cfg.seed, "relay-mix", rd.n, 0, relayMixOps, relayPool, relayConsigns)
	var nConsigns int
	for _, op := range ops {
		if op == opConsign {
			nConsigns++
		}
	}
	consigns, err := smallJobs(r.cfg.seed, "relay-zib", rd.n, 0, nConsigns, zib, 1)
	if err != nil {
		return err
	}
	forwards, err := smallJobs(r.cfg.seed, "relay-fed", rd.n, 1, relayForwards, core.Target{Usite: smallSite}, relayProcs)
	if err != nil {
		return err
	}
	p, err := seedPool(rd, sA, credA, seed)
	if err != nil {
		return err
	}
	rd.driveJobs(relayPool, true)

	rd.beginTimed()
	var wg sync.WaitGroup
	var readLat, ackLat, fedLat []float64
	var moved int64
	var ackedA []*jobPlan
	var idsA []core.JobID
	wg.Add(2)
	go func() {
		defer wg.Done()
		next := 0
		for k, op := range ops {
			if op != opConsign {
				d, n, err := p.read(rd, op, jobs[k], true)
				if err != nil {
					r.fail("round %d: %v", rd.n, err)
					continue
				}
				readLat = append(readLat, ms(d))
				moved += n
				continue
			}
			plan := consigns[next]
			next++
			var id core.JobID
			d, err := rd.call(p.dn, callKind{name: "submit", serial: true, split: true}, func() (err error) {
				id, err = sA.Submit(context.Background(), plan.job)
				return err
			})
			if err != nil {
				r.fail("round %d: submit %s: %v", rd.n, plan.name, err)
				continue
			}
			ackLat = append(ackLat, ms(d))
			moved += int64(len(plan.inline))
			p.extra[id] = true
			ackedA = append(ackedA, plan)
			idsA = append(idsA, id)
		}
	}()
	idsB := make([]core.JobID, len(forwards))
	go func() {
		defer wg.Done()
		for k, plan := range forwards {
			var id core.JobID
			d, err := rd.call(credB.DN(), callKind{name: "submit", serial: true, fed: true}, func() (err error) {
				id, err = sB.Submit(context.Background(), plan.job)
				return err
			})
			if err != nil {
				r.fail("round %d: forwarded submit %s: %v", rd.n, plan.name, err)
				continue
			}
			fedLat = append(fedLat, ms(d))
			idsB[k] = id
		}
	}()
	wg.Wait()
	calls := int64(len(readLat) + len(ackLat) + len(fedLat))
	for k, plan := range forwards {
		if idsB[k] != "" {
			moved += int64(len(plan.inline))
		}
	}
	rd.endTimed(calls, moved)
	rd.samples("read", true, readLat)
	p.flush(rd)
	rd.samples("ack", false, ackLat)
	rd.samples("fed_ack", false, fedLat)

	rd.driveJobs(len(ackLat)+len(fedLat), true)
	for _, id := range idsB {
		if id == "" {
			continue
		}
		var err error
		forwarded := strings.HasPrefix(string(id), string(bigSite)+"-")
		if !forwarded {
			err = fmt.Errorf("forwarded job %s was not placed at %s", id, bigSite)
		}
		rd.check(err)
		if rd.tr != nil {
			r.layers.add("federation.forwarded", b2f(forwarded))
		}
	}
	verifyJobs(rd, []*client.Session{sA, sB}, []*pki.Credential{credA, credB},
		[][]*jobPlan{ackedA, forwards}, [][]core.JobID{idsA, idsB})
	if err := g.syncJournals(); err != nil {
		return err
	}
	rd.closeLayers(int64(relayPool+len(ackLat)+len(fedLat)), 2)
	all := append(append(append([]core.JobID(nil), p.ids...), idsA...), idsB...)
	return durableCheck(rd, all)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
