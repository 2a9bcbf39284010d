// quickstart — the smallest complete ngp program.
//
// Sends ten named ADUs across a lossy simulated link and prints them as
// they complete at the receiver. Run it and watch the delivery order: ADUs
// behind a lost packet arrive LATER, but nothing waits for them — that is
// Application Level Framing in one screen of code.
//
//   $ ./quickstart
#include <cstdio>

#include "netsim/net_path.h"
#include "sessiond/sessiond.h"

using namespace ngp;

int main() {
  // 1. A simulated network: 10 Mb/s, 5 ms propagation, 5% packet loss.
  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  cfg.propagation_delay = 5 * kMillisecond;
  cfg.seed = 2026;
  DuplexChannel channel(loop, cfg);
  channel.forward.set_loss_rate(0.05);

  LinkPath data(channel.forward);          // fragments flow forward
  LinkPath feedback_tx(channel.reverse);   // NACK/progress flow back
  LinkPath feedback_rx(channel.reverse);

  // 2. One ALF association, opened through the session plane. open()
  //    validates the config first — a malformed session fails here, not
  //    as a misbehaving endpoint.
  sessiond::Sessiond daemon(loop);
  const alf::SessionConfig session{
      .retransmit = alf::RetransmitPolicy::kTransportBuffered};
  auto handle = daemon.open(session, {&data, &feedback_tx, &feedback_rx});
  if (!handle.ok()) {
    std::printf("open failed: %s\n", handle.error().to_string().c_str());
    return 1;
  }
  sessiond::AlfSession& s = *handle.value();

  // 3. The receiver gets COMPLETE ADUs the moment they finish, in whatever
  //    order the network permits.
  s.set_on_adu([&](Adu&& adu) {
    std::printf("t=%-10s delivered %-14s (%zu bytes)\n",
                format_sim_time(loop.now()).c_str(), adu.name.to_string().c_str(),
                adu.payload.size());
  });
  s.set_on_complete([&] {
    std::printf("t=%-10s transfer complete\n", format_sim_time(loop.now()).c_str());
  });

  // 4. Send ten ADUs, each individually named by the application.
  ByteBuffer payload(4000);
  for (std::uint64_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i);
    }
    if (auto r = s.send_adu(generic_name(i), payload.span()); !r.ok()) {
      std::printf("send failed: %s\n", r.error().to_string().c_str());
      return 1;
    }
  }
  s.finish();

  // 5. Run the simulation to completion. The handle closes the session
  //    when it goes out of scope.
  loop.run();

  std::printf("\nsender:   %llu fragments, %llu ADU retransmissions\n",
              static_cast<unsigned long long>(s.sender().stats().fragments_sent),
              static_cast<unsigned long long>(
                  s.sender().stats().adus_retransmitted));
  std::printf("receiver: %llu ADUs, %llu delivered out of order, %llu NACKs sent\n",
              static_cast<unsigned long long>(s.receiver().stats().adus_delivered),
              static_cast<unsigned long long>(
                  s.receiver().stats().adus_delivered_out_of_order),
              static_cast<unsigned long long>(s.receiver().stats().nacks_sent));
  return 0;
}
