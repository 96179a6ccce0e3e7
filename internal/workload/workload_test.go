package workload

import (
	"testing"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/httpsim"
)

func testSpec(rate float64, seed int64) Spec {
	return Spec{
		Name:       "test",
		Rate:       rate,
		NewRequest: app.NewProductRequest,
		Seed:       seed,
		Warmup:     2 * time.Second,
		Measure:    10 * time.Second,
		Cooldown:   time.Second,
	}
}

func TestArrivalRateAccuracy(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	g := Start(e.Sched, e.Gateway, testSpec(50, 1))
	e.Sched.RunUntil(14 * time.Second)
	r := g.Results()
	// 13 s of arrivals at 50 RPS: ~650 expected.
	if r.Issued < 550 || r.Issued > 750 {
		t.Fatalf("issued = %d, want ~650", r.Issued)
	}
	if g.Running() {
		t.Fatal("generator still running after total duration")
	}
}

func TestMeasurementWindowExcludesWarmupCooldown(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	g := Start(e.Sched, e.Gateway, testSpec(20, 2))
	e.Sched.RunUntil(20 * time.Second)
	e.Sched.Run()
	r := g.Results()
	if r.Measured == 0 {
		t.Fatal("nothing measured")
	}
	// Measured arrivals are a strict subset of issued (warmup/cooldown
	// excluded): ~10s/13s of arrivals.
	if r.Measured >= r.Issued {
		t.Fatalf("measured %d >= issued %d", r.Measured, r.Issued)
	}
	frac := float64(r.Measured) / float64(r.Issued)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("measured fraction = %.2f, want ~0.77", frac)
	}
	if r.Errors != 0 {
		t.Fatalf("errors = %d", r.Errors)
	}
	if r.P50() <= 0 || r.P99() < r.P50() {
		t.Fatalf("p50=%v p99=%v", r.P50(), r.P99())
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func() (uint64, time.Duration) {
		e := app.BuildELibrary(app.DefaultELibraryConfig())
		g := Start(e.Sched, e.Gateway, testSpec(30, 7))
		e.Sched.RunUntil(15 * time.Second)
		r := g.Results()
		return r.Issued, r.P99()
	}
	i1, p1 := run()
	i2, p2 := run()
	if i1 != i2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", i1, p1, i2, p2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	e1 := app.BuildELibrary(app.DefaultELibraryConfig())
	g1 := Start(e1.Sched, e1.Gateway, testSpec(30, 1))
	e1.Sched.RunUntil(15 * time.Second)
	e2 := app.BuildELibrary(app.DefaultELibraryConfig())
	g2 := Start(e2.Sched, e2.Gateway, testSpec(30, 99))
	e2.Sched.RunUntil(15 * time.Second)
	if g1.Results().Issued == g2.Results().Issued {
		t.Log("issued counts equal (possible but unlikely); checking p50")
		if g1.Results().P50() == g2.Results().P50() {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestErrorsCounted(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	spec := testSpec(10, 3)
	spec.NewRequest = func() *httpsim.Request {
		r := httpsim.NewRequest("GET", "/x")
		r.Headers.Set("host", "no-such-service")
		return r
	}
	g := Start(e.Sched, e.Gateway, spec)
	e.Sched.RunUntil(14 * time.Second)
	r := g.Results()
	if r.Errors == 0 || r.Errors != r.Completed {
		t.Fatalf("errors = %d, completed = %d", r.Errors, r.Completed)
	}
	if r.Measured != 0 {
		t.Fatal("errored requests must not be measured")
	}
}

func TestSpecValidation(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	for _, bad := range []Spec{
		{Rate: 0, NewRequest: app.NewProductRequest, Measure: time.Second},
		{Rate: 10, Measure: time.Second},
		{Rate: 10, NewRequest: app.NewProductRequest},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad spec %+v accepted", bad)
				}
			}()
			Start(e.Sched, e.Gateway, bad)
		}()
	}
}

func TestResultsStringAndThroughput(t *testing.T) {
	e := app.BuildELibrary(app.DefaultELibraryConfig())
	g := Start(e.Sched, e.Gateway, testSpec(25, 5))
	e.Sched.RunUntil(20 * time.Second)
	e.Sched.Run()
	r := g.Results()
	if r.Throughput() < 15 || r.Throughput() > 35 {
		t.Fatalf("throughput = %.1f, want ~25", r.Throughput())
	}
	if len(r.String()) < 10 {
		t.Fatal("string summary empty")
	}
}
