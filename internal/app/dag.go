package app

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// ServiceSpec declares one service of a DAG application.
type ServiceSpec struct {
	// Name is the service (and "app" label) name.
	Name string
	// Replicas is the pod count (default 1), per zone when the DAG has
	// zones.
	Replicas int
	// ServiceTime is the per-request compute time.
	ServiceTime time.Duration
	// Tail, if set, is drawn once per request as it arrives and added to
	// ServiceTime: a heavy tail (GC pause, cache miss) on top of the
	// nominal compute.
	Tail func() time.Duration
	// ResponseBytes is the response body size.
	ResponseBytes int
	// Calls lists downstream calls made in parallel per request.
	Calls []Call
	// Masks answers 200 over any child reply, whatever its status; only
	// a transport error still fails the request.
	Masks bool
	// Paths overrides ServiceTime, ResponseBytes, Calls and Masks for
	// requests whose path starts with a prefix; the first match wins.
	Paths []PathSpec
	// Workers bounds pod concurrency (0 = unbounded).
	Workers int
	// UplinkRate is each pod's link rate to its bridge (zero:
	// cluster.DefaultLink's); the delay is always DefaultLink's.
	UplinkRate int64
}

// PathSpec is how a service serves the requests under one path prefix.
type PathSpec struct {
	Prefix        string
	ServiceTime   time.Duration
	ResponseBytes int
	Calls         []Call
	Masks         bool
}

// ewGatewayWorkers bounds each east-west gateway pod. The mesh runs no
// work on pod workers, so it moves no result; 32 matches the
// e-library's pods, which TestELibraryTopologies pins.
const ewGatewayWorkers = 32

// Call is one edge of the DAG: a child request to Service at Path. An
// empty Path forwards the inbound request's path.
type Call struct {
	Service string
	Path    string
}

// Zone is a failure domain, in a region or ("") on the root bridge.
type Zone struct {
	Name, Region string
}

// DAGSpec declares a whole application as a service DAG. Entry is the
// service external requests address; Zones, if any, each hold every
// service's replicas; Mesh configures the mesh it runs on.
type DAGSpec struct {
	Services []ServiceSpec
	Entry    string
	Zones    []Zone
	Mesh     mesh.Config
}

// DAG is an assembled DAG application.
type DAG struct {
	Sched   *simnet.Scheduler
	Net     *simnet.Network
	Cluster *cluster.Cluster
	Mesh    *mesh.Mesh
	Gateway *mesh.Gateway
	Entry   string

	specs    map[string]*ServiceSpec
	nextIdx  map[string]int
	replicas map[string][]*replica
}

// Validate checks the spec: unique names, absolute paths, known call
// targets, a known entry, unique zone names, and acyclicity (requests
// must terminate).
func (s DAGSpec) Validate() error {
	if len(s.Services) == 0 {
		return fmt.Errorf("app: DAG needs services")
	}
	byName := map[string]*ServiceSpec{}
	for i := range s.Services {
		svc := &s.Services[i]
		if svc.Name == "" {
			return fmt.Errorf("app: service %d has no name", i)
		}
		if _, dup := byName[svc.Name]; dup {
			return fmt.Errorf("app: duplicate service %q", svc.Name)
		}
		if svc.Replicas < 0 || svc.ServiceTime < 0 || svc.ResponseBytes < 0 || svc.Workers < 0 || svc.UplinkRate < 0 {
			return fmt.Errorf("app: %s has a negative replica count, service time, response size, worker bound or uplink rate", svc.Name)
		}
		for _, p := range svc.Paths {
			if !strings.HasPrefix(p.Prefix, "/") {
				return fmt.Errorf("app: %s has path prefix %q, which does not start with /", svc.Name, p.Prefix)
			}
			if p.ServiceTime < 0 || p.ResponseBytes < 0 {
				return fmt.Errorf("app: %s has a negative service time or response size under %s", svc.Name, p.Prefix)
			}
		}
		byName[svc.Name] = svc
	}
	if _, ok := byName[s.Entry]; !ok {
		return fmt.Errorf("app: entry service %q not declared", s.Entry)
	}
	zones := map[string]bool{}
	for _, z := range s.Zones {
		if z.Name == "" || zones[z.Name] {
			return fmt.Errorf("app: zone %q is unnamed or declared twice", z.Name)
		}
		zones[z.Name] = true
	}
	for _, svc := range s.Services {
		for _, c := range svc.edges() {
			if _, ok := byName[c.Service]; !ok {
				return fmt.Errorf("app: %s calls unknown service %q", svc.Name, c.Service)
			}
			if c.Path != "" && c.Path[0] != '/' {
				return fmt.Errorf("app: %s calls %s at path %q, which does not start with /", svc.Name, c.Service, c.Path)
			}
		}
	}
	// Cycle check via DFS colours.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch colour[name] {
		case grey:
			return fmt.Errorf("app: call cycle through %q", name)
		case black:
			return nil
		}
		colour[name] = grey
		for _, c := range byName[name].edges() {
			if err := visit(c.Service); err != nil {
				return err
			}
		}
		colour[name] = black
		return nil
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// edges lists every call the service makes, on any path.
func (s *ServiceSpec) edges() []Call {
	out := append([]Call(nil), s.Calls...)
	for _, p := range s.Paths {
		out = append(out, p.Calls...)
	}
	return out
}

// BuildDAG assembles the application on a fresh scheduler: the zones in
// order, the ingress gateway in the first, one pod per replica zone by
// zone, with its sidecar and its handler (registerDAGHandler), one
// service per spec, and one east-west gateway pod per region.
func BuildDAG(spec DAGSpec) (*DAG, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched)
	cl := cluster.New(net)
	var zones []string
	for _, z := range spec.Zones {
		cl.AddZoneInRegion(z.Name, z.Region, cluster.DefaultZoneUplink)
		zones = append(zones, z.Name)
	}
	if zones == nil {
		zones = []string{""} // an unzoned DAG is one nameless zone
	}

	gwPod := cl.AddPod(cluster.PodSpec{Name: "gateway", Labels: map[string]string{"app": "gateway"}, Zone: zones[0]})
	m := mesh.New(cl, spec.Mesh)
	gw := m.NewGateway(gwPod)

	d := &DAG{
		Sched: sched, Net: net, Cluster: cl, Mesh: m, Gateway: gw, Entry: spec.Entry,
		specs:    make(map[string]*ServiceSpec, len(spec.Services)),
		nextIdx:  make(map[string]int, len(spec.Services)),
		replicas: make(map[string][]*replica, len(spec.Services)),
	}
	// The handlers hold their spec by pointer; the copy keeps them from
	// seeing later edits to the caller's slice. Each copy's Paths ends
	// in a catch-all with the service's own time, size, calls and mask.
	services := append([]ServiceSpec(nil), spec.Services...)
	for i := range services {
		svc := &services[i]
		svc.Paths = append(append([]PathSpec(nil), svc.Paths...),
			PathSpec{ServiceTime: svc.ServiceTime, ResponseBytes: svc.ResponseBytes, Calls: svc.Calls, Masks: svc.Masks})
		d.specs[svc.Name] = svc
	}
	for _, z := range zones {
		for i := range services {
			for r := 0; r < max(services[i].Replicas, 1); r++ {
				d.addReplica(services[i].Name, z)
			}
		}
	}
	for i := range services {
		cl.AddService(services[i].Name, 9080, map[string]string{"app": services[i].Name})
	}
	for _, r := range cl.Regions() {
		name := mesh.EWGatewayService(r)
		pod := cl.AddPod(cluster.PodSpec{Name: name, Labels: map[string]string{"app": name},
			Workers: ewGatewayWorkers, Region: r})
		cl.AddService(name, 9080, map[string]string{"app": name})
		m.NewEastWestGateway(pod)
	}
	return d, nil
}

// addReplica creates one pod of the service in the zone: named by the
// service's replica count when unzoned, by the zone's suffix (and the
// count, for a zone's later replicas) when zoned.
func (d *DAG) addReplica(service, zone string) *cluster.Pod {
	svc := d.specs[service]
	d.nextIdx[service]++
	i := d.nextIdx[service]
	name := fmt.Sprintf("%s-%d", service, i)
	if zone != "" {
		name = service + "-" + strings.TrimPrefix(zone, "zone-")
		if d.Cluster.Pod(name) != nil {
			name = fmt.Sprintf("%s-%d", name, i)
		}
	}
	pod := d.Cluster.AddPod(cluster.PodSpec{
		Name:    name,
		Labels:  map[string]string{"app": service, "version": fmt.Sprintf("v%d", i)},
		Link:    simnet.LinkConfig{Rate: svc.UplinkRate, Delay: cluster.DefaultLink.Delay},
		Workers: svc.Workers,
		Zone:    zone,
	})
	d.replicas[service] = append(d.replicas[service], registerDAGHandler(d.Mesh, pod, svc, service == d.Entry))
	return pod
}

// ReadyReplicas returns the service's currently ready pod count.
func (d *DAG) ReadyReplicas(service string) int {
	n := 0
	for _, r := range d.replicas[service] {
		if r.pod.Ready() {
			n++
		}
	}
	return n
}

// Scale adjusts a service's ready replica count at runtime: scaling up
// creates new pods (with sidecars and handlers); scaling down marks the
// newest pods unready, draining them Kubernetes-style without touching
// in-flight work. Previously drained pods are reused before new ones
// are created, outside any zone.
func (d *DAG) Scale(service string, replicas int) error {
	if _, ok := d.specs[service]; !ok {
		return fmt.Errorf("app: unknown service %q", service)
	}
	if replicas < 1 {
		return fmt.Errorf("app: replicas must be >= 1")
	}
	// Scale down: drain from the end.
	for i := len(d.replicas[service]) - 1; i >= 0 && d.ReadyReplicas(service) > replicas; i-- {
		if p := d.replicas[service][i].pod; p.Ready() {
			p.SetReady(false)
		}
	}
	// Scale up: first reactivate drained pods, then create.
	for _, r := range d.replicas[service] {
		if d.ReadyReplicas(service) >= replicas {
			break
		}
		if !r.pod.Ready() {
			r.pod.SetReady(true)
		}
	}
	for d.ReadyReplicas(service) < replicas {
		d.addReplica(service, "")
	}
	return nil
}

// registerDAGHandler is how every DAG service answers: pick the first
// path spec whose prefix the request's path has, draw the tail, compute
// for the path's service time plus it, then either answer (a leaf) or
// call every child in parallel and answer once all have replied, with
// the worst status among them (502 for a transport error; 200 for any
// other reply when the path masks). The entry service copies the
// priority header onto its children (§4.3 (1)); past it, priority
// propagation is the mesh's job.
func registerDAGHandler(m *mesh.Mesh, pod *cluster.Pod, svc *ServiceSpec, entry bool) *replica {
	r := &replica{pod: pod, sc: m.InjectSidecar(pod), svc: svc, entry: entry}
	r.sc.RegisterApp(r.serve)
	return r
}

// replica is one pod of a DAG service: its sidecar, its spec, and the
// free list of the join records its requests use.
type replica struct {
	pod   *cluster.Pod
	sc    *mesh.Sidecar
	svc   *ServiceSpec
	entry bool
	joins []*join
}

// serve picks the request's path spec, draws the tail as the request
// arrives and queues its compute.
func (r *replica) serve(req *httpsim.Request, respond func(*httpsim.Response)) {
	i := 0 // the catch-all at the end of Paths stops the scan
	for !strings.HasPrefix(req.Path, r.svc.Paths[i].Prefix) {
		i++
	}
	p := &r.svc.Paths[i]
	t := p.ServiceTime
	if r.svc.Tail != nil {
		t += r.svc.Tail()
	}
	j := r.newJoin()
	j.req, j.respond, j.path = req, respond, p
	r.pod.Exec(t, j.compute)
}

// join is one request a replica serves, from its compute to its
// answer: its path spec and, for a fan-out, the replies it still waits
// for and the worst status among those in. Records live on their
// replica's free list; compute and reply are methods bound once, when
// the record is made, and answer returns the record to the list, which
// is safe because Sidecar.Call fires each reply exactly once.
//
//meshvet:pooled
type join struct {
	r         *replica
	req       *httpsim.Request
	respond   func(*httpsim.Response)
	path      *PathSpec
	remaining int
	worst     int
	// compute is run bound once, the pod's callback; reply is done
	// bound once, every child call's callback.
	compute func()
	reply   func(*httpsim.Response, error)
}

// newJoin takes a record off the replica's free list, or makes one.
func (r *replica) newJoin() *join {
	if n := len(r.joins); n > 0 {
		j := r.joins[n-1]
		r.joins = r.joins[:n-1]
		return j
	}
	j := &join{r: r}
	j.compute, j.reply = j.run, j.done
	return j
}

// run follows the pod's compute: a leaf answers, a fan-out calls every
// child.
func (j *join) run() {
	r, req, calls := j.r, j.req, j.path.Calls
	if len(calls) == 0 {
		j.answer(httpsim.StatusOK)
		return
	}
	j.remaining, j.worst = len(calls), httpsim.StatusOK
	reply := j.reply
	for _, c := range calls {
		path := c.Path
		if path == "" {
			path = req.Path
		}
		child := childRequest(req, c.Service, path)
		if r.entry {
			if p := req.Headers.Get(mesh.HeaderPriority); p != "" {
				child.Headers.Set(mesh.HeaderPriority, p)
			}
		}
		r.sc.Call(child, reply)
	}
}

func (j *join) done(resp *httpsim.Response, err error) {
	status := httpsim.StatusBadGateway
	if err == nil {
		status = resp.Status
		if j.path.Masks {
			status = httpsim.StatusOK
		}
	}
	j.worst = max(j.worst, status)
	j.remaining--
	if j.remaining > 0 {
		return
	}
	j.answer(j.worst)
}

// answer responds with the status and the service's body, after
// returning the record to its replica's free list.
func (j *join) answer(status int) {
	r, respond := j.r, j.respond
	out := httpsim.NewResponse(status)
	out.BodyBytes = j.path.ResponseBytes
	*j = join{r: r, compute: j.compute, reply: j.reply}
	r.joins = append(r.joins, j) //meshvet:allow poolescape this free list IS the pool: the one sanctioned retainer
	respond(out)
}

// NewDAGRequest builds an external request entering the DAG.
func (d *DAG) NewDAGRequest() *httpsim.Request {
	r := httpsim.NewRequest("GET", "/compose")
	r.Headers.Set(mesh.HeaderHost, d.Entry)
	return r
}

// SocialNetworkSpec is a DeathStarBench-flavoured topology: a compose
// front tier fanning out through timeline, graph, and storage tiers —
// the "fleets of microservices" of the paper's introduction.
func SocialNetworkSpec() DAGSpec {
	msec := func(n int) time.Duration { return time.Duration(n) * 100 * time.Microsecond }
	return DAGSpec{
		Entry: "compose",
		Services: []ServiceSpec{
			{Name: "compose", Replicas: 2, ServiceTime: msec(8), ResponseBytes: 16 << 10,
				Calls: calls("home-timeline", "user-timeline", "text", "media")},
			{Name: "home-timeline", Replicas: 2, ServiceTime: msec(5), ResponseBytes: 8 << 10,
				Calls: calls("social-graph", "post-storage")},
			{Name: "user-timeline", Replicas: 2, ServiceTime: msec(5), ResponseBytes: 8 << 10,
				Calls: calls("post-storage")},
			{Name: "social-graph", ServiceTime: msec(4), ResponseBytes: 4 << 10,
				Calls: calls("graph-cache")},
			{Name: "graph-cache", ServiceTime: msec(2), ResponseBytes: 2 << 10,
				Calls: calls("graph-db")},
			{Name: "graph-db", ServiceTime: msec(6), ResponseBytes: 4 << 10},
			{Name: "post-storage", Replicas: 2, ServiceTime: msec(4), ResponseBytes: 8 << 10,
				Calls: calls("post-cache")},
			{Name: "post-cache", ServiceTime: msec(2), ResponseBytes: 8 << 10,
				Calls: calls("post-db")},
			{Name: "post-db", ServiceTime: msec(6), ResponseBytes: 8 << 10},
			{Name: "text", ServiceTime: msec(3), ResponseBytes: 2 << 10,
				Calls: calls("url-shorten", "user-mention")},
			{Name: "url-shorten", ServiceTime: msec(2), ResponseBytes: 1 << 10},
			{Name: "user-mention", ServiceTime: msec(2), ResponseBytes: 1 << 10},
			{Name: "media", ServiceTime: msec(4), ResponseBytes: 32 << 10},
		},
	}
}

// calls declares edges that all forward the inbound request's path.
func calls(services ...string) []Call {
	out := make([]Call, len(services))
	for i, s := range services {
		out[i].Service = s
	}
	return out
}
