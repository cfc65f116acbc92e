package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"mood/internal/clock"
	"mood/internal/cluster"
	"mood/internal/service"
	"mood/internal/store"
)

// node is one WAL-backed service.Server on a loopback listener.
type node struct {
	id   string
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// nodeSpec configures a node the way cmd/moodserver does.
type nodeSpec struct {
	id        string // cluster node id; "" for a single node
	dir       string // WAL directory
	protector service.Protector
	retrainer service.Retrainer // nil: no dynamic protection
	rec       *recorder
}

// startNode opens the WAL (fsync always, moodserver's default), builds
// the server with moodserver's default options, recovers it and serves
// it.
func startNode(spec nodeSpec) (*node, error) {
	clk := clock.System()
	var fsys store.FS = store.OS()
	if spec.rec != nil {
		fsys = tracedFS{rec: spec.rec, next: fsys}
	}
	w, err := store.NewWAL(store.WALOptions{Dir: spec.dir, Fsync: store.FsyncAlways, FS: fsys})
	if err != nil {
		return nil, err
	}
	var st store.Store = w
	if spec.rec != nil {
		st = tracedStore{rec: spec.rec, next: w}
	}
	opts := []service.Option{
		service.WithClock(clk),
		service.WithRateLimit(0, 10),
		service.WithQueueDepth(64),
		service.WithWorkers(0),
		service.WithRequestTimeout(2 * time.Minute),
		service.WithHistoryCap(0),
		service.WithStore(st),
	}
	if spec.retrainer != nil {
		opts = append(opts, service.WithRetrainer(spec.retrainer, 0))
	}
	if spec.id != "" {
		opts = append(opts, service.WithNodeID(spec.id))
	}
	srv, err := service.New(spec.protector, opts...)
	if err != nil {
		w.Close() //nolint:errcheck // already failing
		return nil, err
	}
	var ri int32 = -1
	if spec.rec != nil {
		ri = spec.rec.begin("store.recover", 0)
	}
	err = srv.Recover()
	if spec.rec != nil {
		spec.rec.end(ri)
	}
	if err != nil {
		srv.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("recovering %s: %w", spec.dir, err)
	}
	var h http.Handler = srv.Handler()
	if spec.rec != nil {
		h = tracedHandler{rec: spec.rec, kind: "service", next: h}
	}
	n, err := serve(h)
	if err != nil {
		srv.Close() //nolint:errcheck // already failing
		return nil, err
	}
	n.id, n.srv = spec.id, srv
	return n, nil
}

// serve runs h on a fresh loopback listener.
func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		n.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		close(n.done)
	}()
	return n, nil
}

// close stops serving, waits for the serve loop and closes the server
// (which drains its workers and closes the WAL).
func (n *node) close() error {
	err := n.hs.Close()
	<-n.done
	if n.srv != nil {
		if cerr := n.srv.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// deployment is what a workload drives: one node, or nodes behind the
// rendezvous router.
type deployment struct {
	url    string
	nodes  []*node
	m      *cluster.Membership
	router *node
}

func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if d.router != nil {
		keep(d.router.close())
	}
	if d.m != nil {
		d.m.Close()
	}
	for _, n := range d.nodes {
		keep(n.close())
	}
	return first
}

// misroutes sums the nodes' misroute tripwires.
func (d *deployment) misroutes() int64 {
	var total int64
	for _, n := range d.nodes {
		total += n.srv.NodeStats().Misroutes
	}
	return total
}

// startCluster boots size WAL nodes, health-checked membership and the
// router in front of them, the shape of loadgen.NewClusterHost, built
// here so the router's handler and the nodes' file systems can be
// wrapped.
func startCluster(size int, dir string, mk func(id, dir string) nodeSpec, rec *recorder) (*deployment, error) {
	d := &deployment{}
	members := make([]cluster.Node, 0, size)
	for i := 0; i < size; i++ {
		id := fmt.Sprintf("n%02d", i)
		n, err := startNode(mk(id, filepath.Join(dir, id)))
		if err != nil {
			d.close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("booting node %s: %w", id, err)
		}
		d.nodes = append(d.nodes, n)
		members = append(members, cluster.Node{ID: id, URL: n.url})
	}
	m, err := cluster.NewMembership(cluster.Config{
		Nodes:         members,
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
	})
	if err != nil {
		d.close() //nolint:errcheck // already failing
		return nil, err
	}
	d.m = m
	m.Start()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Membership: m})
	if err != nil {
		d.close() //nolint:errcheck // already failing
		return nil, err
	}
	var h http.Handler = rt
	if rec != nil {
		h = tracedHandler{rec: rec, kind: "cluster", next: h}
	}
	d.router, err = serve(h)
	if err != nil {
		d.close() //nolint:errcheck // already failing
		return nil, err
	}
	d.url = d.router.url
	return d, nil
}
