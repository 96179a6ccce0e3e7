package mesh

// This file is the mesh metric-name registry: every family the mesh
// and gateway subsystems register is declared here, once, as a named
// constant. The meshvet metricdecl analyzer enforces it — an inline
// literal at a Counter/Gauge/Histogram/ObserveDuration call is a lint
// error, and two constants spelling the same family (or one family
// registered as two kinds) are caught across packages via facts.
//
// Naming convention (also machine-checked): subsystem prefix (mesh_,
// gateway_, ctrlplane_) plus lowercase snake_case; counters end in
// _total, histograms in _duration or _seconds; gauges name a level.

// Counter families.
const (
	MetricRequestsTotal           = "mesh_requests_total"
	MetricRetriesTotal            = "mesh_retries_total"
	MetricRetryBudgetExhausted    = "mesh_retry_budget_exhausted_total"
	MetricFallbackServedTotal     = "mesh_fallback_served_total"
	MetricMirroredTotal           = "mesh_mirrored_total"
	MetricAdmissionShedTotal      = "mesh_admission_shed_total"
	MetricAdmissionCancelledTotal = "mesh_admission_cancelled_total"
	MetricCertsIssuedTotal        = "mesh_certs_issued_total"
	MetricHealthProbeTotal        = "mesh_health_probe_total"
	MetricHealthProbeAnswered     = "mesh_health_probe_answered_total"
	MetricHealthTransitionsTotal  = "mesh_health_transitions_total"
	MetricHealthConnAbortsTotal   = "mesh_health_conn_aborts_total"
	MetricOutlierEjectionsTotal   = "mesh_outlier_ejections_total"
	MetricOutlierPanicTotal       = "mesh_outlier_panic_total"
	MetricServerFaultInjected     = "mesh_server_fault_injected_total"
	MetricLBCrossZoneTotal        = "mesh_lb_cross_zone_total"
	MetricCrossRegionTotal        = "mesh_cross_region_total"
	MetricGatewayDegradedTotal    = "gateway_degraded_total"
	MetricEWIngressTotal          = "gateway_eastwest_ingress_total"
	MetricEWEgressTotal           = "gateway_eastwest_egress_total"
)

// Gauge families.
const (
	MetricAdmissionQueueDepth = "mesh_admission_queue_depth"
	MetricAdmissionLimit      = "mesh_admission_limit"
)

// Histogram families.
const (
	MetricRequestDuration        = "mesh_request_duration"
	MetricGatewayRequestDuration = "gateway_request_duration"
)
