#pragma once

#include "obs/httpd.h"

namespace m3dfl::serve {

class DiagnosisService;

/// Wires the standard admin-plane routes onto `server` (call before
/// AdminHttpServer::start()):
///
///   /healthz       200 "ok" while the process is up (liveness)
///   /readyz        200 once a model is published and the executor is up,
///                  503 before (readiness — what a load balancer polls)
///   /metrics       Prometheus text exposition of the global MetricsRegistry
///   /metrics.json  {"registry":<registry json>,"service":<service json>}
///   /statusz       build info, obs state, uptime, ServiceOptions, live
///                  model version, pending-request high-water
///   /tracez        recent tracer spans + slow-request exemplar store
///
/// Handlers only read atomics and mutex-guarded snapshots of state the
/// serve path already publishes; they never touch a worker's private
/// context, so scraping cannot perturb in-flight diagnosis (see DESIGN.md,
/// "Admin plane threading model"). `service` must outlive the server.
void register_admin_endpoints(obs::AdminHttpServer& server,
                              const DiagnosisService& service);

}  // namespace m3dfl::serve
