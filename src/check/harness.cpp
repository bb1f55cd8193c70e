#include "check/harness.hpp"

namespace prdma::check {

void crash_server(const ServerUnderTest& sut) {
  sut.server.on_crash();
  sut.node.crash();
  for (core::RpcClient* c : sut.clients) c->abort_pending();
  if (sut.oracle != nullptr) sut.oracle->on_crash();
}

sim::Task<> restart_server(const ServerUnderTest& sut,
                           sim::SimTime restart_delay) {
  co_await sim::delay(sut.node.simulator(), restart_delay);
  sut.node.restart();
  co_await sut.server.recover_and_restart();
  for (core::RpcClient* c : sut.clients) sut.server.reconnect_client(*c);
  if (sut.oracle != nullptr) sut.oracle->after_recovery();
}

sim::Task<> watch_finish(sim::WaitGroup& wg, sim::Simulator& sim,
                         std::optional<sim::SimTime>& end) {
  co_await wg.wait();
  end = sim.now();
}

}  // namespace prdma::check
