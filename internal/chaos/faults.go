package chaos

import (
	"fmt"
	"time"

	"meshlayer/internal/mesh"
	"meshlayer/internal/simnet"
)

// PodCrash kills a pod for the event's duration: its sockets die with
// the process and its network blackholes until the restart. The
// orchestrator is deliberately not told (no readiness flip): detecting
// the loss is the mesh's job, via timeouts, circuit breakers, and
// active health checks.
type PodCrash struct {
	Pod string
}

// Name implements Fault.
func (f PodCrash) Name() string { return "pod-crash/" + f.Pod }

// Inject implements Fault.
func (f PodCrash) Inject(t *Target) {
	pod := t.Cluster.Pod(f.Pod)
	pod.Partition(true)
	// A crashed process takes its connections with it. Without this,
	// the pod's half-open peers would keep retransmitting responses
	// nobody wants and flood the network when the partition heals.
	pod.Host().ResetConns()
}

// Revert implements Fault.
func (f PodCrash) Revert(t *Target) { t.Cluster.Pod(f.Pod).Partition(false) }

func (f PodCrash) validate(t *Target) error { return needPod(t, f.Pod) }

// LossBurst degrades a pod's uplink with random loss and jitter in
// both directions — the congested/flaky-path failure the transport
// layer absorbs with retransmissions at a latency cost.
type LossBurst struct {
	Pod string
	// Loss is the per-packet drop probability in [0, 1].
	Loss float64
	// Jitter adds U(0, Jitter) propagation delay per packet.
	Jitter time.Duration
	// Seed drives the impairment PRNGs.
	Seed int64
}

// Name implements Fault.
func (f LossBurst) Name() string { return "loss-burst/" + f.Pod }

// Inject implements Fault.
func (f LossBurst) Inject(t *Target) {
	l := t.Cluster.Pod(f.Pod).Uplink()
	l.A().Impair(simnet.Impairment{LossProb: f.Loss, JitterMax: f.Jitter, Seed: f.Seed})
	l.B().Impair(simnet.Impairment{LossProb: f.Loss, JitterMax: f.Jitter, Seed: f.Seed + 1})
}

// Revert implements Fault.
func (f LossBurst) Revert(t *Target) {
	l := t.Cluster.Pod(f.Pod).Uplink()
	l.A().Impair(simnet.Impairment{})
	l.B().Impair(simnet.Impairment{})
}

func (f LossBurst) validate(t *Target) error {
	if err := needPod(t, f.Pod); err != nil {
		return err
	}
	if f.Loss < 0 || f.Loss > 1 {
		return fmt.Errorf("loss-burst/%s: Loss must be in [0, 1]", f.Pod)
	}
	return nil
}

// SlowPod inflates a pod's service times by Factor — the gray failure
// where a sick replica keeps answering 200s, slowly. Active health
// probes (answered by the sidecar) stay green; only latency-aware
// outlier detection sees it.
type SlowPod struct {
	Pod    string
	Factor float64
}

// Name implements Fault.
func (f SlowPod) Name() string { return "slow-pod/" + f.Pod }

// Inject implements Fault.
func (f SlowPod) Inject(t *Target) { t.Cluster.Pod(f.Pod).SetExecFactor(f.Factor) }

// Revert implements Fault.
func (f SlowPod) Revert(t *Target) { t.Cluster.Pod(f.Pod).SetExecFactor(1) }

func (f SlowPod) validate(t *Target) error {
	if err := needPod(t, f.Pod); err != nil {
		return err
	}
	if f.Factor < 1 {
		return fmt.Errorf("slow-pod/%s: Factor must be >= 1", f.Pod)
	}
	return nil
}

// ErrorRate makes a pod's application answer a fraction of requests
// with an error status (optionally after a stall) — the intermittent
// 5xx gray failure. Health probes keep passing by design; success-rate
// outlier detection is the defense that catches it.
type ErrorRate struct {
	Pod string
	// Prob is the per-request error probability.
	Prob float64
	// Status is the injected code (default 500).
	Status int
	// Delay stalls each injected error.
	Delay time.Duration
	// Seed drives the fault's PRNG.
	Seed int64
}

// Name implements Fault.
func (f ErrorRate) Name() string { return "error-rate/" + f.Pod }

// Inject implements Fault.
func (f ErrorRate) Inject(t *Target) {
	t.Mesh.Sidecar(f.Pod).SetServerFault(mesh.ServerFault{
		Prob: f.Prob, Status: f.Status, Delay: f.Delay, Seed: f.Seed,
	})
}

// Revert implements Fault.
func (f ErrorRate) Revert(t *Target) {
	t.Mesh.Sidecar(f.Pod).SetServerFault(mesh.ServerFault{})
}

func (f ErrorRate) validate(t *Target) error {
	if err := needPod(t, f.Pod); err != nil {
		return err
	}
	if t.Mesh.Sidecar(f.Pod) == nil {
		return fmt.Errorf("error-rate/%s: pod has no sidecar", f.Pod)
	}
	if f.Prob <= 0 || f.Prob > 1 {
		return fmt.Errorf("error-rate/%s: Prob must be in (0, 1]", f.Pod)
	}
	return nil
}

// Restart models one step of a rolling deploy: the pod is drained
// (readiness off — a discovery change the control plane must
// propagate), killed after Grace (partition + connection reset, as in
// PodCrash), and comes back ready when the event reverts. Sidecars
// with fresh discovery stop routing to the pod during the drain;
// sidecars on stale snapshots keep dialing it through the kill.
type Restart struct {
	Pod string
	// Grace is the drain window between readiness-off and the kill.
	Grace time.Duration
	// Resubscribe re-registers the pod's sidecar with the distributing
	// control plane when the pod comes back — the fresh proxy process
	// of a real restart rejoins instead of riding the old subscription.
	// Off by default (pre-survivability behavior); a no-op in
	// instant-propagation mode.
	Resubscribe bool
}

// Name implements Fault.
func (f Restart) Name() string { return "restart/" + f.Pod }

// Inject implements Fault.
func (f Restart) Inject(t *Target) {
	pod := t.Cluster.Pod(f.Pod)
	pod.SetReady(false)
	t.Sched.After(f.Grace, func() {
		if pod.Ready() {
			return // already reverted
		}
		pod.Partition(true)
		pod.Host().ResetConns()
	})
}

// Revert implements Fault.
func (f Restart) Revert(t *Target) {
	pod := t.Cluster.Pod(f.Pod)
	pod.Partition(false)
	pod.SetReady(true)
	if f.Resubscribe {
		t.Mesh.ControlPlane().ResubscribePod(f.Pod)
	}
}

func (f Restart) validate(t *Target) error { return needPod(t, f.Pod) }

// ControlPlaneCrash kills the distributing control plane for the
// event's duration: the control-plane pod partitions, in-flight
// pushes die with its sockets, and the server process loses all
// volatile push state. Sidecars keep routing on their last-good
// snapshots — static stability, the property that makes this fault
// survivable at all. On revert the control plane restarts into a new
// epoch and every subscriber must full-resync: the resync storm the
// ctrlplane backoff/backpressure/admission knobs exist to suppress.
type ControlPlaneCrash struct{}

// Name implements Fault.
func (f ControlPlaneCrash) Name() string { return "ctrlplane-crash" }

// Inject implements Fault.
func (f ControlPlaneCrash) Inject(t *Target) { t.Mesh.ControlPlane().CrashDistribution() }

// Revert implements Fault.
func (f ControlPlaneCrash) Revert(t *Target) { t.Mesh.ControlPlane().RecoverDistribution() }

func (f ControlPlaneCrash) validate(t *Target) error {
	if !t.Mesh.ControlPlane().Distributed() {
		return fmt.Errorf("ctrlplane-crash: distribution not enabled")
	}
	return nil
}

// CPStale delays control-plane configuration propagation — the stale
// xDS failure where operators' pushes take effect long after they were
// applied. Policies already in force keep working; only changes lag.
// It is the distributors' hold: staged updates are held back by Delay
// and every sidecar keeps routing on its last-acknowledged snapshot.
type CPStale struct {
	Delay time.Duration
}

// Name implements Fault.
func (f CPStale) Name() string { return fmt.Sprintf("cp-stale/%v", f.Delay) }

// Inject implements Fault.
func (f CPStale) Inject(t *Target) { t.Mesh.ControlPlane().SetPushDelay(f.Delay) }

// Revert implements Fault.
func (f CPStale) Revert(t *Target) { t.Mesh.ControlPlane().SetPushDelay(0) }

func (f CPStale) validate(t *Target) error {
	if !t.Mesh.ControlPlane().Distributed() {
		return fmt.Errorf("%s: distribution not enabled", f.Name())
	}
	return nil
}

func needPod(t *Target, name string) error {
	if t.Cluster.Pod(name) == nil {
		return fmt.Errorf("unknown pod %q", name)
	}
	return nil
}
