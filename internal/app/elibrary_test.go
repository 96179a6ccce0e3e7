package app

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"meshlayer/internal/cluster"
	"meshlayer/internal/httpsim"
	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
	"meshlayer/internal/transport"
)

// describe renders everything BuildELibrary decides, in the order it
// decided it: simulator nodes (creation order fixes addresses), zone
// and WAN links, every pod with its placement, labels, sidecar and the
// application answering behind it, service membership, and the
// ELibrary's role fields.
func describe(t *testing.T, e *ELibrary) string {
	t.Helper()
	var b strings.Builder
	names := func(pods []*cluster.Pod) string {
		out := make([]string, len(pods))
		for i, p := range pods {
			out[i] = p.Name()
		}
		return strings.Join(out, " ")
	}
	link := func(l *simnet.Link) string {
		return fmt.Sprintf("%s--%s %dG %v", l.A().Node().Name(), l.B().Node().Name(), l.Config().Rate/simnet.Gbps, l.Config().Delay)
	}

	b.WriteString("nodes:")
	for _, n := range e.Net.Nodes() {
		b.WriteString(" " + n.Name())
	}
	b.WriteString("\n")

	spine := 0
	for _, z := range e.Cluster.Zones() {
		fmt.Fprintf(&b, "zone %s region=%q %s\n", z, e.Cluster.ZoneRegion(z), link(e.Cluster.ZoneUplink(z)))
		spine++
	}
	regions := e.Cluster.Regions()
	for i, r := range regions {
		for _, peer := range regions[i+1:] {
			fmt.Fprintf(&b, "wan %s %s %s\n", r, peer, link(e.Cluster.WANLink(r, peer)))
			spine++
		}
	}
	if got := len(e.Net.Links()) - len(e.Cluster.Pods()); got != spine {
		t.Errorf("%d links besides the pod uplinks, want the %d zone and WAN links", got, spine)
	}

	// Which application a sidecar fronts shows in what it answers a
	// product-page and an analytics request with: every role has its own
	// two body sizes, and the ingress and east-west gateways serve nothing
	// locally.
	answers := map[string]*[2]string{}
	for _, sc := range e.Mesh.Sidecars() {
		pod := sc.Pod()
		got := new([2]string)
		answers[pod.Name()] = got
		cl := httpsim.NewClient(e.Cluster.Pod("gateway").Host(), pod.Addr(), mesh.InboundPort, transport.Options{})
		for i, path := range []string{PathProduct, PathAnalytics} {
			i := i
			cl.Do(httpsim.NewRequest("GET", path), func(resp *httpsim.Response, err error) {
				if err != nil {
					got[i] = err.Error()
					return
				}
				got[i] = fmt.Sprintf("%d/%dB", resp.Status, resp.BodyBytes)
			})
		}
	}
	e.Sched.Run()

	var withSidecar []string
	for _, p := range e.Cluster.Pods() {
		var labels []string
		for k, v := range p.Labels() {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		fmt.Fprintf(&b, "pod %s zone=%q region=%q %dG via %s workers=%d {%s}", p.Name(), p.Zone(), p.Region(),
			p.Uplink().Config().Rate/simnet.Gbps, p.Uplink().B().Node().Name(), p.Workers().Capacity(), strings.Join(labels, " "))
		if sc := e.Mesh.Sidecar(p.Name()); sc != nil {
			fmt.Fprintf(&b, " sidecar=%s answers=%s", sc.ServiceName(), strings.Join(answers[p.Name()][:], ","))
			withSidecar = append(withSidecar, p.Name())
		}
		b.WriteString("\n")
	}
	// Sidecars() is the control plane's subscription order.
	var order []string
	for _, sc := range e.Mesh.Sidecars() {
		order = append(order, sc.Pod().Name())
	}
	if fmt.Sprint(order) != fmt.Sprint(withSidecar) {
		t.Errorf("Mesh.Sidecars() order %v, want pod creation order %v", order, withSidecar)
	}
	for _, s := range e.Cluster.Services() {
		fmt.Fprintf(&b, "service %s:%d -> %s\n", s.Name(), s.Port(), names(s.Endpoints()))
	}

	fmt.Fprintf(&b, "Frontend=%s Details=%s Ratings=%s\n", e.Frontend.Name(), e.Details.Name(), e.Ratings.Name())
	fmt.Fprintf(&b, "Reviews=[%s]\nAllRatings=[%s]\nZones=%v Regions=%v EastWest=[%s]\n",
		names(e.Reviews), names(e.AllRatings), e.Zones, e.Regions, names(e.EastWest))
	return b.String()
}

// TestELibraryTopologies pins the three testbed shapes — the paper's
// single zone, one replica set per zone, and zones replicated across
// regions — down to creation order, which fixes addresses,
// subscription order and so every golden built on them.
func TestELibraryTopologies(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*ELibraryConfig)
		want string
	}{
		{"default", func(*ELibraryConfig) {}, topoDefault},
		{"zones=3", func(c *ELibraryConfig) { c.Zones = 3 }, topoZones3},
		{"regions=3", func(c *ELibraryConfig) { c.Regions = 3 }, topoRegions3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultELibraryConfig()
			tc.set(&cfg)
			got, want := strings.Split(describe(t, BuildELibrary(cfg)), "\n"), strings.Split(tc.want, "\n")
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("line %d differs\n got: %s\nwant: %s", i+1, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d lines, want %d", len(got), len(want))
			}
		})
	}
}

// TestELibraryConfigDefaulting pins the defaulting rule: a zero field
// keeps the paper's value, so a config that names only what differs
// builds that — the whole testbed, down to describe's last line — and
// ELibrary.Config holds the values built.
func TestELibraryConfigDefaulting(t *testing.T) {
	seeded := mesh.Config{Seed: 9, SidecarDelayMean: -1}
	def := DefaultELibraryConfig()
	with := func(set func(*ELibraryConfig)) ELibraryConfig {
		c := def
		set(&c)
		return c
	}
	for _, tc := range []struct {
		name     string
		in, want ELibraryConfig
		topo     string
	}{
		{"zero", ELibraryConfig{}, def, topoDefault},
		{"mesh alone", ELibraryConfig{Mesh: seeded}, with(func(c *ELibraryConfig) { c.Mesh = seeded }), topoDefault},
		{"zones alone", ELibraryConfig{Zones: 3}, with(func(c *ELibraryConfig) { c.Zones = 3 }), topoZones3},
		{"regions and mesh alone", ELibraryConfig{Regions: 3, Mesh: seeded},
			with(func(c *ELibraryConfig) { c.Regions, c.Mesh = 3, seeded }), topoRegions3},
		{"bottleneck alone", ELibraryConfig{BottleneckRate: 5 * simnet.Gbps},
			with(func(c *ELibraryConfig) { c.BottleneckRate = 5 * simnet.Gbps }),
			strings.Replace(topoDefault, " 1G via ", " 5G via ", 1)},
		{"LI bytes alone", ELibraryConfig{LIRatingsBytes: 1 << 20},
			with(func(c *ELibraryConfig) { c.LIRatingsBytes = 1 << 20 }),
			strings.Replace(topoDefault, "/2097152B", "/1048576B", 1)},
	} {
		e := BuildELibrary(tc.in)
		if e.Config != tc.want {
			t.Errorf("%s: built with %+v\nwant %+v", tc.name, e.Config, tc.want)
		}
		if got := describe(t, e); got != tc.topo {
			t.Errorf("%s: built\n%s\nwant\n%s", tc.name, got, tc.topo)
		}
	}
}

const topoDefault = `nodes: bridge gateway frontend-1 details-1 reviews-1 reviews-2 ratings-1
pod gateway zone="" region="" 15G via bridge workers=0 {app=gateway} sidecar=gateway answers=404/0B,404/0B
pod frontend-1 zone="" region="" 15G via bridge workers=32 {app=frontend version=v1} sidecar=frontend answers=200/8192B,200/32768B
pod details-1 zone="" region="" 15G via bridge workers=32 {app=details version=v1} sidecar=details answers=200/2048B,200/2048B
pod reviews-1 zone="" region="" 15G via bridge workers=32 {app=reviews version=v1} sidecar=reviews answers=200/4096B,200/32768B
pod reviews-2 zone="" region="" 15G via bridge workers=32 {app=reviews version=v2} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-1 zone="" region="" 1G via bridge workers=32 {app=ratings version=v1} sidecar=ratings answers=200/1024B,200/2097152B
service details:9080 -> details-1
service frontend:9080 -> frontend-1
service ratings:9080 -> ratings-1
service reviews:9080 -> reviews-1 reviews-2
Frontend=frontend-1 Details=details-1 Ratings=ratings-1
Reviews=[reviews-1 reviews-2]
AllRatings=[ratings-1]
Zones=[] Regions=[] EastWest=[]
`

const topoZones3 = `nodes: bridge bridge-zone-a bridge-zone-b bridge-zone-c gateway frontend-a details-a reviews-a ratings-a frontend-b details-b reviews-b ratings-b frontend-c details-c reviews-c ratings-c
zone zone-a region="" bridge-zone-a--bridge 40G 250µs
zone zone-b region="" bridge-zone-b--bridge 40G 250µs
zone zone-c region="" bridge-zone-c--bridge 40G 250µs
pod gateway zone="zone-a" region="" 15G via bridge-zone-a workers=0 {app=gateway zone=zone-a} sidecar=gateway answers=404/0B,404/0B
pod frontend-a zone="zone-a" region="" 15G via bridge-zone-a workers=32 {app=frontend version=v1 zone=zone-a} sidecar=frontend answers=200/8192B,200/32768B
pod details-a zone="zone-a" region="" 15G via bridge-zone-a workers=32 {app=details version=v1 zone=zone-a} sidecar=details answers=200/2048B,200/2048B
pod reviews-a zone="zone-a" region="" 15G via bridge-zone-a workers=32 {app=reviews version=v1 zone=zone-a} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-a zone="zone-a" region="" 1G via bridge-zone-a workers=32 {app=ratings version=v1 zone=zone-a} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-b zone="zone-b" region="" 15G via bridge-zone-b workers=32 {app=frontend version=v2 zone=zone-b} sidecar=frontend answers=200/8192B,200/32768B
pod details-b zone="zone-b" region="" 15G via bridge-zone-b workers=32 {app=details version=v2 zone=zone-b} sidecar=details answers=200/2048B,200/2048B
pod reviews-b zone="zone-b" region="" 15G via bridge-zone-b workers=32 {app=reviews version=v2 zone=zone-b} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-b zone="zone-b" region="" 1G via bridge-zone-b workers=32 {app=ratings version=v2 zone=zone-b} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-c zone="zone-c" region="" 15G via bridge-zone-c workers=32 {app=frontend version=v3 zone=zone-c} sidecar=frontend answers=200/8192B,200/32768B
pod details-c zone="zone-c" region="" 15G via bridge-zone-c workers=32 {app=details version=v3 zone=zone-c} sidecar=details answers=200/2048B,200/2048B
pod reviews-c zone="zone-c" region="" 15G via bridge-zone-c workers=32 {app=reviews version=v3 zone=zone-c} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-c zone="zone-c" region="" 1G via bridge-zone-c workers=32 {app=ratings version=v3 zone=zone-c} sidecar=ratings answers=200/1024B,200/2097152B
service details:9080 -> details-a details-b details-c
service frontend:9080 -> frontend-a frontend-b frontend-c
service ratings:9080 -> ratings-a ratings-b ratings-c
service reviews:9080 -> reviews-a reviews-b reviews-c
Frontend=frontend-a Details=details-a Ratings=ratings-a
Reviews=[reviews-a reviews-b reviews-c]
AllRatings=[ratings-a ratings-b ratings-c]
Zones=[zone-a zone-b zone-c] Regions=[] EastWest=[]
`

const topoRegions3 = `nodes: bridge spine-region-a bridge-zone-a1 bridge-zone-a2 spine-region-b bridge-zone-b1 bridge-zone-b2 spine-region-c bridge-zone-c1 bridge-zone-c2 gateway frontend-a1 details-a1 reviews-a1 ratings-a1 frontend-a2 details-a2 reviews-a2 ratings-a2 frontend-b1 details-b1 reviews-b1 ratings-b1 frontend-b2 details-b2 reviews-b2 ratings-b2 frontend-c1 details-c1 reviews-c1 ratings-c1 frontend-c2 details-c2 reviews-c2 ratings-c2 eastwest-region-a eastwest-region-b eastwest-region-c
zone zone-a1 region="region-a" bridge-zone-a1--spine-region-a 40G 250µs
zone zone-a2 region="region-a" bridge-zone-a2--spine-region-a 40G 250µs
zone zone-b1 region="region-b" bridge-zone-b1--spine-region-b 40G 250µs
zone zone-b2 region="region-b" bridge-zone-b2--spine-region-b 40G 250µs
zone zone-c1 region="region-c" bridge-zone-c1--spine-region-c 40G 250µs
zone zone-c2 region="region-c" bridge-zone-c2--spine-region-c 40G 250µs
wan region-a region-b spine-region-b--spine-region-a 10G 25ms
wan region-a region-c spine-region-c--spine-region-a 10G 25ms
wan region-b region-c spine-region-c--spine-region-b 10G 25ms
pod gateway zone="zone-a1" region="region-a" 15G via bridge-zone-a1 workers=0 {app=gateway region=region-a zone=zone-a1} sidecar=gateway answers=404/0B,404/0B
pod frontend-a1 zone="zone-a1" region="region-a" 15G via bridge-zone-a1 workers=32 {app=frontend region=region-a version=v1 zone=zone-a1} sidecar=frontend answers=200/8192B,200/32768B
pod details-a1 zone="zone-a1" region="region-a" 15G via bridge-zone-a1 workers=32 {app=details region=region-a version=v1 zone=zone-a1} sidecar=details answers=200/2048B,200/2048B
pod reviews-a1 zone="zone-a1" region="region-a" 15G via bridge-zone-a1 workers=32 {app=reviews region=region-a version=v1 zone=zone-a1} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-a1 zone="zone-a1" region="region-a" 1G via bridge-zone-a1 workers=32 {app=ratings region=region-a version=v1 zone=zone-a1} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-a2 zone="zone-a2" region="region-a" 15G via bridge-zone-a2 workers=32 {app=frontend region=region-a version=v2 zone=zone-a2} sidecar=frontend answers=200/8192B,200/32768B
pod details-a2 zone="zone-a2" region="region-a" 15G via bridge-zone-a2 workers=32 {app=details region=region-a version=v2 zone=zone-a2} sidecar=details answers=200/2048B,200/2048B
pod reviews-a2 zone="zone-a2" region="region-a" 15G via bridge-zone-a2 workers=32 {app=reviews region=region-a version=v2 zone=zone-a2} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-a2 zone="zone-a2" region="region-a" 1G via bridge-zone-a2 workers=32 {app=ratings region=region-a version=v2 zone=zone-a2} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-b1 zone="zone-b1" region="region-b" 15G via bridge-zone-b1 workers=32 {app=frontend region=region-b version=v3 zone=zone-b1} sidecar=frontend answers=200/8192B,200/32768B
pod details-b1 zone="zone-b1" region="region-b" 15G via bridge-zone-b1 workers=32 {app=details region=region-b version=v3 zone=zone-b1} sidecar=details answers=200/2048B,200/2048B
pod reviews-b1 zone="zone-b1" region="region-b" 15G via bridge-zone-b1 workers=32 {app=reviews region=region-b version=v3 zone=zone-b1} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-b1 zone="zone-b1" region="region-b" 1G via bridge-zone-b1 workers=32 {app=ratings region=region-b version=v3 zone=zone-b1} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-b2 zone="zone-b2" region="region-b" 15G via bridge-zone-b2 workers=32 {app=frontend region=region-b version=v4 zone=zone-b2} sidecar=frontend answers=200/8192B,200/32768B
pod details-b2 zone="zone-b2" region="region-b" 15G via bridge-zone-b2 workers=32 {app=details region=region-b version=v4 zone=zone-b2} sidecar=details answers=200/2048B,200/2048B
pod reviews-b2 zone="zone-b2" region="region-b" 15G via bridge-zone-b2 workers=32 {app=reviews region=region-b version=v4 zone=zone-b2} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-b2 zone="zone-b2" region="region-b" 1G via bridge-zone-b2 workers=32 {app=ratings region=region-b version=v4 zone=zone-b2} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-c1 zone="zone-c1" region="region-c" 15G via bridge-zone-c1 workers=32 {app=frontend region=region-c version=v5 zone=zone-c1} sidecar=frontend answers=200/8192B,200/32768B
pod details-c1 zone="zone-c1" region="region-c" 15G via bridge-zone-c1 workers=32 {app=details region=region-c version=v5 zone=zone-c1} sidecar=details answers=200/2048B,200/2048B
pod reviews-c1 zone="zone-c1" region="region-c" 15G via bridge-zone-c1 workers=32 {app=reviews region=region-c version=v5 zone=zone-c1} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-c1 zone="zone-c1" region="region-c" 1G via bridge-zone-c1 workers=32 {app=ratings region=region-c version=v5 zone=zone-c1} sidecar=ratings answers=200/1024B,200/2097152B
pod frontend-c2 zone="zone-c2" region="region-c" 15G via bridge-zone-c2 workers=32 {app=frontend region=region-c version=v6 zone=zone-c2} sidecar=frontend answers=200/8192B,200/32768B
pod details-c2 zone="zone-c2" region="region-c" 15G via bridge-zone-c2 workers=32 {app=details region=region-c version=v6 zone=zone-c2} sidecar=details answers=200/2048B,200/2048B
pod reviews-c2 zone="zone-c2" region="region-c" 15G via bridge-zone-c2 workers=32 {app=reviews region=region-c version=v6 zone=zone-c2} sidecar=reviews answers=200/4096B,200/32768B
pod ratings-c2 zone="zone-c2" region="region-c" 1G via bridge-zone-c2 workers=32 {app=ratings region=region-c version=v6 zone=zone-c2} sidecar=ratings answers=200/1024B,200/2097152B
pod eastwest-region-a zone="" region="region-a" 15G via spine-region-a workers=32 {app=eastwest-region-a region=region-a} sidecar=eastwest-region-a answers=404/0B,404/0B
pod eastwest-region-b zone="" region="region-b" 15G via spine-region-b workers=32 {app=eastwest-region-b region=region-b} sidecar=eastwest-region-b answers=404/0B,404/0B
pod eastwest-region-c zone="" region="region-c" 15G via spine-region-c workers=32 {app=eastwest-region-c region=region-c} sidecar=eastwest-region-c answers=404/0B,404/0B
service details:9080 -> details-a1 details-a2 details-b1 details-b2 details-c1 details-c2
service eastwest-region-a:9080 -> eastwest-region-a
service eastwest-region-b:9080 -> eastwest-region-b
service eastwest-region-c:9080 -> eastwest-region-c
service frontend:9080 -> frontend-a1 frontend-a2 frontend-b1 frontend-b2 frontend-c1 frontend-c2
service ratings:9080 -> ratings-a1 ratings-a2 ratings-b1 ratings-b2 ratings-c1 ratings-c2
service reviews:9080 -> reviews-a1 reviews-a2 reviews-b1 reviews-b2 reviews-c1 reviews-c2
Frontend=frontend-a1 Details=details-a1 Ratings=ratings-a1
Reviews=[reviews-a1 reviews-a2 reviews-b1 reviews-b2 reviews-c1 reviews-c2]
AllRatings=[ratings-a1 ratings-a2 ratings-b1 ratings-b2 ratings-c1 ratings-c2]
Zones=[zone-a1 zone-a2 zone-b1 zone-b2 zone-c1 zone-c2] Regions=[region-a region-b region-c] EastWest=[eastwest-region-a eastwest-region-b eastwest-region-c]
`

// TestELibraryFailureSemantics pins what the gateway sees when a tier
// fails, on both paths. Reviews answers 200 over any reply from ratings
// (Masks), so the page and the scan still succeed when ratings answers
// 503 or 429; when ratings cannot be reached at all, reviews fails with
// a 502, which the page passes on and the scan, masking too, answers
// over. The page masks nothing: a 429 from details reaches the gateway,
// where the e-library's hand-written frontend answered 200 (DESIGN.md
// §5, "One service-graph builder"). Retries are off everywhere, and
// calls to ratings time out after 50 ms.
func TestELibraryFailureSemantics(t *testing.T) {
	abort := func(service string, status int) func(*ELibrary) {
		return func(e *ELibrary) {
			e.Mesh.ControlPlane().SetFaultPolicy(service, mesh.FaultPolicy{AbortProb: 1, AbortStatus: status})
		}
	}
	for _, tc := range []struct {
		name               string
		fail               func(*ELibrary)
		product, analytics string
	}{
		{"ratings answers 503", abort("ratings", httpsim.StatusServiceUnavailable), "200/8192B", "200/32768B"},
		{"ratings answers 429", abort("ratings", httpsim.StatusTooManyRequests), "200/8192B", "200/32768B"},
		{"ratings unreachable", func(e *ELibrary) {
			for _, p := range e.AllRatings {
				p.Partition(true)
			}
		}, "502/8192B", "200/32768B"},
		{"details answers 429", abort("details", httpsim.StatusTooManyRequests), "429/8192B", "200/32768B"},
	} {
		for _, path := range []struct {
			req  func() *httpsim.Request
			want string
		}{{NewProductRequest, tc.product}, {NewAnalyticsRequest, tc.analytics}} {
			e := BuildELibrary(DefaultELibraryConfig())
			for _, s := range e.Cluster.Services() {
				pol := mesh.RetryPolicy{}
				if s.Name() == "ratings" {
					pol.PerTryTimeout = 50 * time.Millisecond
				}
				e.Mesh.ControlPlane().SetRetryPolicy(s.Name(), pol)
			}
			tc.fail(e)
			req := path.req()
			var got []string
			e.Gateway.Serve(req, func(resp *httpsim.Response, err error) {
				if err != nil {
					got = append(got, err.Error())
					return
				}
				got = append(got, fmt.Sprintf("%d/%dB", resp.Status, resp.BodyBytes))
			})
			e.Sched.Run()
			if fmt.Sprint(got) != fmt.Sprint([]string{path.want}) {
				t.Errorf("%s, %s: gateway saw %v, want [%s]", tc.name, req.Path, got, path.want)
			}
		}
	}
}
