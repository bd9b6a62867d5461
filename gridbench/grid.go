package main

// Deployments. Every round deploys a fresh in-process grid through
// internal/testbed and attaches a journal in a fresh directory on the real
// disk to every NJS, so each acknowledged consign pays a real fsync.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/journal"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/testbed"
)

// maxEvents caps one Deployment.Run drive.
const maxEvents = 50_000_000

// durable is one journaled NJS: a single-NJS site (replica < 0) or one
// replica of a pooled Vsite.
type durable struct {
	usite   core.Usite
	vsite   core.Vsite
	replica int
	dir     string
	store   *journal.Store
}

// grid is one round's deployment.
type grid struct {
	d        *testbed.Deployment
	root     string
	journals []*durable
	tr       *tracer
	clients  []*protocol.Client
}

// poolSite is the Usite of the consign, monitor and stage workloads: one
// generic-cluster Vsite served by a durable 2-replica pool with round-robin
// consign routing.
const (
	poolSite  core.Usite = "FZJ"
	poolVsite core.Vsite = "CLUSTER"
)

func newPoolGrid(root string, tr *tracer) (*grid, error) {
	d, err := testbed.New(testbed.SiteSpec{
		Usite:    poolSite,
		Vsites:   []njs.VsiteConfig{{Name: poolVsite, Profile: machine.GenericCluster(256)}},
		Replicas: 2,
		Policy:   pool.RoundRobin,
	})
	if err != nil {
		return nil, err
	}
	g := &grid{d: d, root: root, tr: tr}
	for i := 0; i < 2; i++ {
		if err := g.journal(poolSite, poolVsite, i); err != nil {
			g.close()
			return nil, err
		}
	}
	if tr != nil {
		site := d.Sites[poolSite]
		site.Gateway.SetBackend(&tracedService{Service: site.Gateway.Backend(), tr: tr, seam: seamBackend})
		set, _ := site.Pool.Set(poolVsite)
		for i, n := range site.Replicas[poolVsite] {
			name := pool.ReplicaTag(i)
			if err := set.SetService(name, &tracedService{Service: n, tr: tr, seam: seamNJS | seamReplica, replica: name}); err != nil {
				g.close()
				return nil, err
			}
		}
	}
	return g, nil
}

// Sites of the relay workload: ZIB is a §5.2 split site, FZJ a small
// federated site, DWD a large federated peer.
const (
	splitSite  core.Usite = "ZIB"
	smallSite  core.Usite = "FZJ"
	bigSite    core.Usite = "DWD"
	relayVsite core.Vsite = "T3E"
)

func newRelayGrid(root string, tr *tracer) (*grid, error) {
	d, err := testbed.New(
		testbed.SiteSpec{Usite: splitSite, Split: true,
			Vsites: []njs.VsiteConfig{{Name: relayVsite, Profile: machine.CrayT3E(256)}}},
		testbed.SiteSpec{Usite: smallSite,
			Vsites: []njs.VsiteConfig{{Name: "SMALL", Profile: machine.GenericCluster(2)}}},
		testbed.SiteSpec{Usite: bigSite,
			Vsites: []njs.VsiteConfig{{Name: "BIG", Profile: machine.GenericCluster(64)}}},
	)
	if err != nil {
		return nil, err
	}
	g := &grid{d: d, root: root, tr: tr}
	for _, u := range []core.Usite{splitSite, smallSite, bigSite} {
		if err := g.journal(u, "", -1); err != nil {
			g.close()
			return nil, err
		}
	}
	if err := d.EnableFederation(smallSite, bigSite); err != nil {
		g.close()
		return nil, err
	}
	d.GossipAll()
	d.GossipAll()
	if tr != nil {
		for _, u := range []core.Usite{splitSite, smallSite, bigSite} {
			gw := d.Sites[u].Gateway
			gw.SetBackend(&tracedService{Service: gw.Backend(), tr: tr, seam: seamBackend | seamNJS})
		}
	}
	return g, nil
}

// journal attaches a store in a fresh directory to one NJS.
func (g *grid) journal(u core.Usite, v core.Vsite, replica int) error {
	dir := filepath.Join(g.root, strings.ToLower(fmt.Sprintf("%s-%s-%d", u, v, replica+1)))
	j := &durable{usite: u, vsite: v, replica: replica, dir: dir}
	var err error
	if replica < 0 {
		j.store, err = g.d.EnableDurability(u, dir, 0)
	} else {
		j.store, err = g.d.EnableReplicaDurability(u, v, replica, dir, 0)
	}
	if err != nil {
		return err
	}
	g.journals = append(g.journals, j)
	return nil
}

// user issues a credential for session i.
func (g *grid) user(i int) (*pki.Credential, error) {
	return g.d.NewUser(fmt.Sprintf("Bench User %d", i), "Bench", fmt.Sprintf("bench%d", i))
}

// session opens a client session with its own connection for one user at
// one Usite; traced rounds put seam T under it. One List call during set-up
// dials the session's stream, so no timed call pays the connection set-up.
func (g *grid) session(cred *pki.Credential, u core.Usite) (*client.Session, error) {
	var tp protocol.Transport = g.d.Net
	if g.tr != nil {
		tp = &tracedTransport{base: g.d.Net, tr: g.tr, dn: cred.DN()}
	}
	c := protocol.NewClient(tp, cred, g.d.CA, g.d.Registry)
	g.clients = append(g.clients, c)
	s := client.NewSession(c, u)
	if _, err := s.List(context.Background()); err != nil {
		return nil, fmt.Errorf("warming up the session of %s at %s: %w", cred.DN(), u, err)
	}
	return s, nil
}

// nodeOf finds the live NJS behind a journal.
func (g *grid) nodeOf(j *durable) *njs.NJS {
	site := g.d.Sites[j.usite]
	if j.replica < 0 {
		return site.NJS
	}
	return site.Replicas[j.vsite][j.replica]
}

// journalBytes is the on-disk size of every journal directory.
func (g *grid) journalBytes() int64 {
	var total int64
	for _, j := range g.journals {
		_ = filepath.WalkDir(j.dir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, err := e.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
	}
	return total
}

// syncJournals flushes and fsyncs every journal.
func (g *grid) syncJournals() error {
	var errs []error
	for _, j := range g.journals {
		errs = append(errs, j.store.Sync())
	}
	return errors.Join(errs...)
}

// recoverAll is the durable-ack check's crash: it stops every NJS, syncs
// and closes its store, reopens the directory, rebuilds the NJS with
// njs.Recover and returns each rebuilt consign index. The journals are
// independent, so they recover concurrently.
func (g *grid) recoverAll() ([]map[string]core.JobID, error) {
	out := make([]map[string]core.JobID, len(g.journals))
	errs := make([]error, len(g.journals))
	var wg sync.WaitGroup
	for i, j := range g.journals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = g.recover(j)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (g *grid) recover(j *durable) (map[string]core.JobID, error) {
	g.nodeOf(j).Kill()
	if err := j.store.Sync(); err != nil {
		return nil, err
	}
	if err := j.store.Close(); err != nil {
		return nil, err
	}
	j.store = nil
	store, err := journal.Open(j.dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	cfg := njs.Config{Usite: j.usite, Clock: sim.NewVirtualClock(), Vsites: g.d.Sites[j.usite].Spec.Vsites}
	if j.replica >= 0 {
		cfg.Instance = pool.ReplicaTag(j.replica)
		for _, vc := range cfg.Vsites {
			if vc.Name == j.vsite {
				cfg.Vsites = []njs.VsiteConfig{vc}
			}
		}
	}
	n, err := njs.Recover(store, cfg, 0)
	if err != nil {
		return nil, err
	}
	defer n.Kill()
	return n.ConsignedJobs(), nil
}

// close tears the round down and deletes its journal directories.
func (g *grid) close() {
	for _, c := range g.clients {
		c.Close()
	}
	g.d.Close()
	for _, j := range g.journals {
		if j.store != nil {
			if n := g.nodeOf(j); n != nil {
				n.Kill()
			}
			_ = j.store.Close()
		}
	}
	_ = os.RemoveAll(g.root)
}
