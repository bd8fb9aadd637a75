// A host: one end of the simulated path, owning TCP endpoints, listeners,
// UDP handlers, a raw-socket API, and netfilter-like ingress/egress hooks.
//
// The hook surface mirrors what INTANG uses on Linux (NFQUEUE + raw
// sockets): an egress hook may drop/modify outgoing packets and inject
// extras, and the raw-send API writes arbitrary crafted packets to the wire
// bypassing the TCP state machine.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "netsim/fragment.h"
#include "netsim/path.h"
#include "tcpstack/tcp_endpoint.h"

namespace ys::tcp {

enum class HostSide { kClient, kServer };

class Host {
 public:
  struct Config {
    std::string name = "host";
    net::IpAddr address = 0;
    StackProfile profile;
    HostSide side = HostSide::kClient;
    /// Measurement-tool mode: never answer unknown segments with kernel
    /// RSTs (the equivalent of the iptables OUTPUT-RST-DROP rule every
    /// raw-socket prober installs so its scripted flows aren't disturbed).
    bool suppress_kernel_resets = false;
  };

  /// Per-connection application callbacks used by listeners. `on_data`
  /// receives the endpoint so it can reply in place.
  using DataHandler = std::function<void(TcpEndpoint&, ByteView)>;
  /// UDP datagram handler: (source tuple, payload); reply via send_udp.
  using UdpHandler = std::function<void(const net::FourTuple&, ByteView)>;

  enum class Verdict { kAccept, kDrop };
  /// Outgoing-packet hook (INTANG's interception point). May mutate the
  /// packet; returning kDrop swallows it.
  using PacketHook = std::function<Verdict(net::Packet&)>;

  Host(Config cfg, net::Path& path, net::EventLoop& loop, Rng rng);

  /// Install this host as the path's client or server sink (per side).
  void attach();

  // ----------------------------------------------------------------- TCP

  /// Register a listening port. Incoming connections get per-connection
  /// endpoints; `on_data` fires on every in-order delivery.
  void listen(u16 port, DataHandler on_data);

  /// Active connect. Returns the live endpoint (owned by the host).
  TcpEndpoint& connect(net::IpAddr dst_ip, u16 dst_port, u16 src_port,
                       TcpEndpoint::Callbacks app_callbacks = {});

  /// Find the endpoint for a local-view tuple, or nullptr.
  TcpEndpoint* find(const net::FourTuple& local_tuple);

  // ----------------------------------------------------------------- UDP

  void bind_udp(u16 port, UdpHandler handler);
  void send_udp(const net::FourTuple& tuple, Bytes payload);

  // ---------------------------------------------------- raw + hook plane

  /// Raw-socket send: bypasses endpoints entirely; the packet goes through
  /// the egress hook like everything else (INTANG itself injects *below*
  /// the hook via `send_raw_unhooked`).
  void send_raw(net::Packet pkt);
  /// Raw send that skips the egress hook — used by the hook implementation
  /// itself to emit insertion packets without recursing.
  void send_raw_unhooked(net::Packet pkt);
  /// send_raw_unhooked after `delay`, without allocating (the packet waits
  /// in the path's in-flight slab).
  void send_raw_unhooked_after(SimTime delay, net::Packet pkt);

  /// Deliver a packet to this host's own IP layer as if it had arrived
  /// from the wire (loopback). INTANG's DNS forwarder uses this to hand a
  /// reconstructed UDP response back to the querying application.
  void inject_local(net::Packet pkt) {
    finalize(pkt);
    handle_wire(std::move(pkt));
  }

  void set_egress_hook(PacketHook hook) { egress_hook_ = std::move(hook); }
  void set_ingress_hook(PacketHook hook) { ingress_hook_ = std::move(hook); }

  // ------------------------------------------------------------- inspect

  const Config& config() const { return cfg_; }
  net::EventLoop& loop() { return loop_; }
  net::Path& path() { return path_; }

  /// Every packet that reached this host's IP layer (post reassembly),
  /// in arrival order — the experiment harness classifies Failure 2 by
  /// scanning this for GFW reset fingerprints.
  const std::vector<net::Packet>& received_log() const { return received_; }

  /// Ignore events from packets that matched no endpoint.
  const std::vector<IgnoreEvent>& demux_ignores() const {
    return demux_ignores_;
  }

 private:
  void handle_wire(net::Packet pkt);
  void handle_tcp(const net::Packet& pkt);
  void handle_udp(const net::Packet& pkt);
  void transmit(net::Packet pkt);

  struct Listener {
    DataHandler on_data;
  };

  Config cfg_;
  net::Path& path_;
  net::EventLoop& loop_;
  Rng rng_;
  net::FragmentReassembler reassembler_;

  std::unordered_map<net::FourTuple, std::unique_ptr<TcpEndpoint>,
                     net::FourTupleHash>
      endpoints_;
  std::unordered_map<u16, Listener> listeners_;
  std::unordered_map<u16, UdpHandler> udp_handlers_;

  PacketHook egress_hook_;
  PacketHook ingress_hook_;

  std::vector<net::Packet> received_;
  std::vector<IgnoreEvent> demux_ignores_;
  u16 next_ephemeral_port_ = 40000;
};

}  // namespace ys::tcp
