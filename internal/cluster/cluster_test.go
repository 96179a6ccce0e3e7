package cluster

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

func newCluster(t *testing.T) (*simnet.Scheduler, *Cluster) {
	t.Helper()
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	return s, New(n)
}

func TestPodCreationAndLookup(t *testing.T) {
	_, c := newCluster(t)
	p := c.AddPod(PodSpec{Name: "frontend", Labels: map[string]string{"app": "frontend"}})
	if c.Pod("frontend") != p {
		t.Fatal("lookup failed")
	}
	if p.Addr() == 0 {
		t.Fatal("pod has no address")
	}
	if p.Label("app") != "frontend" || p.Label("missing") != "" {
		t.Fatal("labels wrong")
	}
	if p.NIC() == nil || p.Uplink() == nil || p.Host() == nil {
		t.Fatal("pod infrastructure incomplete")
	}
	if got := p.Uplink().Config().Rate; got != DefaultLink.Rate {
		t.Fatalf("default link rate = %d", got)
	}
}

func TestCustomLinkForBottleneckPod(t *testing.T) {
	_, c := newCluster(t)
	p := c.AddPod(PodSpec{
		Name: "ratings",
		Link: simnet.LinkConfig{Rate: simnet.Gbps, Delay: 20 * time.Microsecond},
	})
	if p.Uplink().Config().Rate != simnet.Gbps {
		t.Fatal("custom link rate not applied")
	}
}

func TestDuplicatePodPanics(t *testing.T) {
	_, c := newCluster(t)
	c.AddPod(PodSpec{Name: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate pod accepted")
		}
	}()
	c.AddPod(PodSpec{Name: "a"})
}

func TestServiceSelectionAndSubsets(t *testing.T) {
	_, c := newCluster(t)
	c.AddPod(PodSpec{Name: "reviews-1", Labels: map[string]string{"app": "reviews", "version": "v1"}})
	c.AddPod(PodSpec{Name: "reviews-2", Labels: map[string]string{"app": "reviews", "version": "v2"}})
	c.AddPod(PodSpec{Name: "details-1", Labels: map[string]string{"app": "details"}})
	svc := c.AddService("reviews", 9080, map[string]string{"app": "reviews"})

	eps := svc.Endpoints()
	if len(eps) != 2 || eps[0].Name() != "reviews-1" || eps[1].Name() != "reviews-2" {
		t.Fatalf("endpoints = %v", eps)
	}
	v2 := svc.Subset("version", "v2")
	if len(v2) != 1 || v2[0].Name() != "reviews-2" {
		t.Fatalf("subset v2 = %v", v2)
	}
	if got := svc.Subset("version", "v9"); len(got) != 0 {
		t.Fatalf("nonexistent subset returned %v", got)
	}
	if c.Service("reviews") != svc || c.Service("nope") != nil {
		t.Fatal("service lookup broken")
	}
	if len(c.Services()) != 1 {
		t.Fatal("services list wrong")
	}
}

func TestPodToPodTrafficViaBridge(t *testing.T) {
	s, c := newCluster(t)
	a := c.AddPod(PodSpec{Name: "a"})
	b := c.AddPod(PodSpec{Name: "b"})
	var got bool
	b.Host().Listen(80, func(conn *transport.Conn) {
		conn.SetOnMessage(func(any, int) { got = true })
	})
	conn := a.Host().Dial(b.Addr(), 80, transport.Options{})
	conn.SendMessage("x", 1000)
	s.Run()
	if !got {
		t.Fatal("pod-to-pod message not delivered through bridge")
	}
}

func TestConnectPodsDirectPath(t *testing.T) {
	s, c := newCluster(t)
	a := c.AddPod(PodSpec{Name: "a"})
	b := c.AddPod(PodSpec{Name: "b"})
	direct := c.ConnectPods(a, b, simnet.LinkConfig{Rate: simnet.Gbps})
	var got bool
	b.Host().Listen(80, func(conn *transport.Conn) {
		conn.SetOnMessage(func(any, int) { got = true })
	})
	conn := a.Host().Dial(b.Addr(), 80, transport.Options{})
	conn.SendMessage("x", 1000)
	s.Run()
	if !got {
		t.Fatal("message not delivered")
	}
	// Direct link (1 hop) should beat the bridge (2 hops).
	if direct.A().TxPackets() == 0 && direct.B().TxPackets() == 0 {
		t.Fatal("direct pod link unused")
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	s := simnet.NewScheduler()
	w := NewWorkerPool(s, 2)
	var done []int
	for i := 0; i < 5; i++ {
		i := i
		w.Run(10*time.Millisecond, func() { done = append(done, i) })
	}
	if w.Busy() != 2 || w.QueueLen() != 3 {
		t.Fatalf("busy=%d queued=%d, want 2/3", w.Busy(), w.QueueLen())
	}
	s.Run()
	if len(done) != 5 {
		t.Fatalf("executed %d, want 5", len(done))
	}
	// 5 jobs, 2 workers, 10ms each: finishes at 30ms.
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("completed at %v, want 30ms", s.Now())
	}
	if w.PeakQueue() != 3 {
		t.Fatalf("peak queue = %d", w.PeakQueue())
	}
	if w.Executed() != 5 {
		t.Fatalf("executed counter = %d", w.Executed())
	}
}

func TestWorkerPoolUnbounded(t *testing.T) {
	s := simnet.NewScheduler()
	w := NewWorkerPool(s, 0)
	n := 0
	for i := 0; i < 10; i++ {
		w.Run(10*time.Millisecond, func() { n++ })
	}
	s.Run()
	if n != 10 {
		t.Fatalf("ran %d", n)
	}
	// All parallel: wall time is one service time.
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("completed at %v, want 10ms", s.Now())
	}
}

func TestWorkerPoolFIFO(t *testing.T) {
	s := simnet.NewScheduler()
	w := NewWorkerPool(s, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		w.Run(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestReadinessExcludesFromEndpoints(t *testing.T) {
	_, c := newCluster(t)
	p1 := c.AddPod(PodSpec{Name: "w-1", Labels: map[string]string{"app": "w"}})
	c.AddPod(PodSpec{Name: "w-2", Labels: map[string]string{"app": "w"}})
	svc := c.AddService("w", 80, map[string]string{"app": "w"})
	if len(svc.Endpoints()) != 2 {
		t.Fatal("initial endpoints")
	}
	p1.SetReady(false)
	eps := svc.Endpoints()
	if len(eps) != 1 || eps[0].Name() != "w-2" {
		t.Fatalf("unready pod still listed: %v", eps)
	}
	p1.SetReady(true)
	if len(svc.Endpoints()) != 2 {
		t.Fatal("readiness restore")
	}
}

func TestPartitionBlackholesAndRestores(t *testing.T) {
	s, c := newCluster(t)
	a := c.AddPod(PodSpec{Name: "a"})
	b := c.AddPod(PodSpec{Name: "b"})
	got := 0
	b.Host().Listen(80, func(conn *transport.Conn) {
		conn.SetOnMessage(func(any, int) { got++ })
	})
	b.Partition(true)
	conn := a.Host().Dial(b.Addr(), 80, transport.Options{})
	conn.SendMessage("x", 100)
	s.RunFor(2 * time.Second)
	if got != 0 {
		t.Fatal("partitioned pod received a message")
	}
	b.Partition(false)
	// SYN retry will get through now.
	s.RunFor(30 * time.Second)
	if got != 1 {
		t.Fatalf("message not delivered after heal: %d", got)
	}
}

func TestAddUplinkCreatesSecondNIC(t *testing.T) {
	_, c := newCluster(t)
	p := c.AddPod(PodSpec{Name: "multi"})
	l := c.AddUplink(p, simnet.LinkConfig{Rate: simnet.Gbps})
	if len(p.Node().NICs()) != 2 {
		t.Fatalf("NICs = %d", len(p.Node().NICs()))
	}
	if l.A().Node() != p.Node() {
		t.Fatal("uplink A side not the pod")
	}
	// Default config variant.
	l2 := c.AddUplink(p, simnet.LinkConfig{})
	if l2.Config().Rate != DefaultLink.Rate {
		t.Fatal("default uplink rate")
	}
}

func TestServicePortAndName(t *testing.T) {
	_, c := newCluster(t)
	c.AddPod(PodSpec{Name: "x-1", Labels: map[string]string{"app": "x"}})
	svc := c.AddService("x", 1234, map[string]string{"app": "x"})
	if svc.Name() != "x" || svc.Port() != 1234 {
		t.Fatal("accessors")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate service accepted")
		}
	}()
	c.AddService("x", 1, nil)
}

func TestPodsOrderStable(t *testing.T) {
	_, c := newCluster(t)
	names := []string{"z", "a", "m"}
	for _, n := range names {
		c.AddPod(PodSpec{Name: n})
	}
	pods := c.Pods()
	for i, n := range names {
		if pods[i].Name() != n {
			t.Fatalf("creation order broken: %v", pods)
		}
	}
	if c.Bridge() == nil || c.Network() == nil || c.Scheduler() == nil {
		t.Fatal("cluster accessors")
	}
}

func TestEmptyPodNamePanics(t *testing.T) {
	_, c := newCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("empty name accepted")
		}
	}()
	c.AddPod(PodSpec{})
}
