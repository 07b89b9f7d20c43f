#include "comimo/resilience/resilient_sim.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/net/hop_scheduler.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/stbc.h"
#include "comimo/resilience/recovery.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo {

namespace {

// Resilience-layer observability.  Every quantity below is a pure
// function of the simulation seeds, and simulate_with_faults runs
// either serially or directly inside a top-level run_trials trial, so
// the deterministic domain is correct for all of them (see the
// observation discipline in obs/metrics.h).
struct ResObs {
  obs::Counter packets =
      obs::MetricRegistry::global().counter("resilience.packets");
  obs::Counter retransmissions =
      obs::MetricRegistry::global().counter("resilience.retransmissions");
  obs::Counter pu_preemptions =
      obs::MetricRegistry::global().counter("resilience.pu_preemptions");
  obs::Counter arq_failures =
      obs::MetricRegistry::global().counter("resilience.arq_failures");
  obs::Counter arq_giveup = obs::MetricRegistry::global().counter("arq.giveup");
  obs::Counter stbc_degradations =
      obs::MetricRegistry::global().counter("resilience.stbc_degradations");
  obs::Histogram pu_wait_s =
      obs::MetricRegistry::global().histogram("resilience.pu_wait_s");
  obs::Histogram backoff_wait_s =
      obs::MetricRegistry::global().histogram("resilience.backoff_wait_s");
  obs::Histogram hop_ber =
      obs::MetricRegistry::global().histogram("resilience.hop_ber");
  obs::Histogram generation_latency_s =
      obs::MetricRegistry::global().histogram("coding.generation_latency_s");
};

ResObs& res_obs() {
  static ResObs o;
  return o;
}

void finalize(ResilienceReport& r) {
  r.delivery_ratio =
      r.packets_offered
          ? static_cast<double>(r.packets_delivered) /
                static_cast<double>(r.packets_offered)
          : 0.0;
  r.goodput_bps = r.total_time_s > 0.0 ? r.delivered_bits / r.total_time_s
                                       : 0.0;
  r.waveform_hop_ber =
      r.waveform_bits ? static_cast<double>(r.waveform_bit_errors) /
                            static_cast<double>(r.waveform_bits)
                      : 0.0;
}

}  // namespace

ResilienceReport simulate_with_faults(const CoMimoNet& net,
                                      const SystemParams& params,
                                      const ResilienceConfig& config) {
  COMIMO_CHECK(config.bits_per_packet > 0.0, "bits per packet must be > 0");
  COMIMO_CHECK(config.rounds >= 1, "need at least one round");
  validate(config.faults);
  validate(config.arq);
  if (config.rlnc.enabled) validate(config.rlnc);

  CoMimoNet world = net;  // degraded copy; the caller's net is untouched
  NodeId max_id = 0;
  for (const auto& n : net.nodes()) max_id = std::max(max_id, n.id);
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(max_id) + 1, 0);
  for (const auto& n : net.nodes()) alive[n.id] = 1;
  std::size_t alive_count = net.nodes().size();

  const FaultInjector injector(config.faults);
  const FaultPlan plan = injector.make_plan(net, config.rounds);
  const UnderlayCooperativeHop planner(params);
  const HopScheduler scheduler;
  Rng traffic(config.traffic_seed, 0x7AFF1C);
  Rng arq_rng(config.faults.seed, 0xA49);
  // Coefficient draws for the RLNC transport; untouched (no stream
  // drift) when rlnc.enabled == false.
  Rng rlnc_rng(config.faults.seed, 0xC0DE);

  ResilienceReport report;
  const double bits = config.bits_per_packet;
  double t = 0.0;
  bool topology_dirty = false;
  std::size_t next_death = 0;
  // Global transmission ordinal feeding the Gilbert–Elliott burst
  // channel: every long-haul send occupies the next slot, so burst
  // dwells straddle retransmissions, hops, and rounds alike.
  std::uint64_t tx_slot = 0;

  // Observational waveform probe: each distinct hop operating point is
  // measured once through the batched link kernel and the measurement
  // reused on every later hop that lands on the same point.  The probe
  // never touches the traffic/fault RNG streams or the timing and
  // energy ledgers, so legacy report fields are bit-identical whether
  // the probe runs or not.  (run_trials inside measure_plan_ber
  // degrades to serial when this simulation itself runs on a pool
  // worker, so nesting is safe.)  measure_plan_ber rides
  // measure_waveform_ber, so when a vector tier is pinned the probe's
  // blocks run W lanes at a time through the hop-batch workspace
  // (phy/hop_batch.h) — per-lane bit-identical, so the cached
  // measurements don't depend on the tier.
  std::map<std::tuple<int, unsigned, unsigned, double>, PlanBerMeasurement>
      waveform_cache;
  const auto probe_waveform = [&](const UnderlayHopPlan& hop_plan) {
    if (config.waveform_blocks == 0) return;
    const auto key = std::make_tuple(hop_plan.b, hop_plan.config.mt,
                                     hop_plan.config.mr, hop_plan.ebar);
    auto it = waveform_cache.find(key);
    if (it == waveform_cache.end()) {
      const std::uint64_t probe_seed =
          config.waveform_seed + waveform_cache.size() + 1;
      it = waveform_cache
               .emplace(key, measure_plan_ber(hop_plan,
                                              config.waveform_blocks,
                                              probe_seed, params))
               .first;
    }
    ++report.waveform_hops;
    report.waveform_bits += it->second.bits;
    report.waveform_bit_errors += it->second.bit_errors;
    if (it->second.bits > 0) {
      res_obs().hop_ber.observe(static_cast<double>(it->second.bit_errors) /
                                static_cast<double>(it->second.bits));
    }
  };

  // Marks `id` dead, recording whether a cluster head just failed.
  const auto kill = [&](NodeId id) {
    if (!alive[id]) return;
    alive[id] = 0;
    --alive_count;
    ++report.node_deaths;
    if (world.clusters()[world.cluster_of(id)].head == id) {
      ++report.head_failovers;
    }
    topology_dirty = true;
  };

  for (std::size_t round = 1; round <= config.rounds; ++round) {
    // Scheduled faults land first: crashes disappear outright, battery
    // exhaustion zeroes the ledger before dying (same repair path).
    while (next_death < plan.deaths().size() &&
           plan.deaths()[next_death].round <= round) {
      const NodeDeath& d = plan.deaths()[next_death++];
      if (d.node < alive.size() && alive[d.node]) {
        if (d.cause == NodeDeath::Cause::kBatteryExhaustion) {
          world.mutable_node(d.node).battery_j = 0.0;
        }
        kill(d.node);
      }
    }
    if (alive_count < 2) break;  // nothing left to route between

    // Self-healing: rebuild clusters, heads, and the spanning tree from
    // the survivors, paying the control-plane repair cost.
    if (topology_dirty) {
      world = surviving_subnet(world, alive);
      ++report.route_repairs;
      report.repair_time_s += config.faults.repair_time_s;
      t += config.faults.repair_time_s;
      topology_dirty = false;
    }

    const CooperativeRouter router(world, params, config.ber,
                                   config.bandwidth_hz, config.mode);
    const std::size_t n = world.nodes().size();
    const NodeId src = world.nodes()[traffic.uniform_int(n)].id;
    NodeId dst = src;
    while (dst == src) dst = world.nodes()[traffic.uniform_int(n)].id;

    ++report.packets_offered;
    res_obs().packets.add();
    const double t_offer = t;
    if (!router.backbone().connected(world.cluster_of(src),
                                     world.cluster_of(dst))) {
      ++report.routing_drops;
    } else {
      bool delivered = true;
      try {
        const RouteReport route = router.route(src, dst);

        // Per-hop preparation shared by both transports: clamp to the
        // supported STBC designs, take one ladder step down if this hop
        // loses a cooperator mid-transmission, re-plan, probe, schedule.
        struct HopCtx {
          RouteHop hop;
          HopSchedule sched;
          double energy_j = 0.0;
        };
        const auto prep_hop = [&](std::size_t h) {
          RouteHop hop = route.hops[h];
          unsigned mt = static_cast<unsigned>(
              stbc_supported_tx(hop.plan.config.mt));
          unsigned mr = static_cast<unsigned>(
              stbc_supported_tx(hop.plan.config.mr));
          if (plan.relay_dropout(round, h) && mt > 1) {
            mt = static_cast<unsigned>(stbc_degraded_tx(mt));
            ++report.stbc_degradations;
            res_obs().stbc_degradations.add();
          }
          hop.plan = planner.replan_shrunk(hop.plan, mt, mr);
          probe_waveform(hop.plan);
          const auto tx = hop_participants(world.clusters()[hop.from],
                                           hop.plan.config.mt);
          const auto rx = hop_participants(world.clusters()[hop.to],
                                           hop.plan.config.mr);
          HopCtx ctx;
          ctx.sched = scheduler.schedule(hop.plan, tx, rx, bits);
          ctx.energy_j = hop.plan.total_energy() * bits;
          ctx.hop = std::move(hop);
          return ctx;
        };

        // Interweave etiquette: vacate while the PU holds the channel,
        // resume when its busy period ends.
        const auto pay_pu_wait = [&]() {
          const double wait = plan.pu_wait_s(t);
          if (wait > 0.0) {
            ++report.pu_preemptions;
            report.pu_wait_s += wait;
            t += wait;
            res_obs().pu_preemptions.add();
            res_obs().pu_wait_s.observe(wait);
          }
        };

        if (config.rlnc.enabled && !route.hops.empty()) {
          // ---- RLNC transport: one generation across the route ------
          // (a zero-hop route — src and dst share a cluster — delivers
          // trivially with no coding, matching the ARQ branch below)
          std::vector<HopCtx> ctxs;
          ctxs.reserve(route.hops.size());
          for (std::size_t h = 0; h < route.hops.size(); ++h) {
            ctxs.push_back(prep_hop(h));
          }
          const auto gen =
              static_cast<double>(config.rlnc.code.generation_size);
          const double pkt_bits = bits / gen;
          const auto erased = [&](std::size_t h, std::size_t txi) {
            // Same counter-based fault streams as the ARQ path, so the
            // two transports face identical loss processes.
            const std::uint64_t slot = tx_slot++;
            return plan.slot_erased(round, h, static_cast<unsigned>(txi)) ||
                   plan.burst_erased(slot);
          };
          const auto charge_packet = [&](std::size_t h, bool recoded,
                                         bool overhead) {
            const HopCtx& c = ctxs[h];
            pay_pu_wait();
            router.apply_hop_drain(world, c.hop, pkt_bits);
            const double pkt_energy = c.energy_j / gen;
            report.energy_spent_j += pkt_energy;
            report.airtime_s += c.sched.makespan_s / gen;
            t += c.sched.makespan_s / gen;
            if (overhead) report.retransmit_energy_j += pkt_energy;
            if (recoded) {
              // The GF recombination work lands on the relay head.
              const NodeId head = world.clusters()[c.hop.from].head;
              world.mutable_node(head).battery_j -=
                  config.rlnc.recode_energy_j;
              report.rlnc_recode_energy_j += config.rlnc.recode_energy_j;
              report.energy_spent_j += config.rlnc.recode_energy_j;
            }
          };
          const auto charge_feedback = [&](std::size_t) {
            report.backoff_wait_s += config.arq.ack_timeout_s;
            t += config.arq.ack_timeout_s;
            res_obs().backoff_wait_s.observe(config.arq.ack_timeout_s);
          };
          const std::uint64_t payload_seed =
              config.traffic_seed ^ (0x9E3779B97F4A7C15ULL * round);
          const RlncRouteResult rr = run_rlnc_route(
              config.rlnc, ctxs.size(), payload_seed, rlnc_rng, erased,
              charge_packet, charge_feedback);
          ++report.rlnc_generations;
          report.rlnc_packets_sent += rr.packets_sent;
          report.rlnc_overhead_packets += rr.overhead_packets;
          report.rlnc_recoded_packets += rr.recoded_packets;
          report.rlnc_feedback_rounds += rr.feedback_rounds;
          if (!rr.delivered) {
            ++report.rlnc_failures;
            report.rlnc_rank_deficit +=
                config.rlnc.code.generation_size - rr.final_rank;
            report.rlnc_partial_bits +=
                static_cast<double>(rr.decodable_packets) * pkt_bits;
            delivered = false;
          } else {
            // Decode latency: offer → the generation's last packet, all
            // waits and feedback rounds included.
            res_obs().generation_latency_s.observe(t - t_offer);
          }
        } else {
          // ---- ARQ transport (legacy fault/RNG streams, unchanged) --
          for (std::size_t h = 0; h < route.hops.size(); ++h) {
            const HopCtx ctx = prep_hop(h);
            bool hop_ok = false;
            for (unsigned k = 0; k < config.arq.max_attempts; ++k) {
              pay_pu_wait();
              router.apply_hop_drain(world, ctx.hop, bits);
              report.energy_spent_j += ctx.energy_j;
              report.airtime_s += ctx.sched.makespan_s;
              t += ctx.sched.makespan_s;
              if (k > 0) {
                ++report.retransmissions;
                report.retransmit_energy_j += ctx.energy_j;
                res_obs().retransmissions.add();
              }
              const std::uint64_t slot = tx_slot++;
              if (!plan.slot_erased(round, h, k) &&
                  !plan.burst_erased(slot)) {
                hop_ok = true;
                break;
              }
              double penalty = config.arq.ack_timeout_s;
              if (k + 1 < config.arq.max_attempts) {
                // config.arq was validated once on entry; the retry loop
                // must not re-validate per draw.
                penalty += arq_backoff_unchecked_s(config.arq, k, arq_rng);
              }
              report.backoff_wait_s += penalty;
              t += penalty;
              res_obs().backoff_wait_s.observe(penalty);
            }
            if (!hop_ok) {
              // The retry budget ran dry mid-route: the link layer gave
              // up, same event run_arq flags with ArqOutcome::exhausted.
              ++report.arq_failures;
              res_obs().arq_failures.add();
              res_obs().arq_giveup.add();
              delivered = false;
              break;
            }
          }
        }
      } catch (const InfeasibleError&) {
        // A degraded hop with no feasible constellation drops the packet
        // but never the simulation.
        ++report.routing_drops;
        delivered = false;
      }
      if (delivered) {
        ++report.packets_delivered;
        report.delivered_bits += bits;
        report.delivered_latency_s += t - t_offer;
      }
    }

    // Batteries the traffic just exhausted die here and heal next round.
    for (const auto& node : world.nodes()) {
      if (alive[node.id] && node.battery_j <= 0.0) kill(node.id);
    }
  }

  report.total_time_s = t;
  finalize(report);
  return report;
}

ResilienceEnsembleReport simulate_with_faults_ensemble(
    const CoMimoNet& net, const SystemParams& params,
    const ResilienceEnsembleConfig& config) {
  COMIMO_CHECK(config.trials >= 1, "need at least one trial");
  McConfig mc;
  mc.seed = config.seed;
  mc.chunk_size = config.chunk_size;
  mc.pool = config.pool;
  const McResult run = run_trials(
      config.trials, mc, [&](std::size_t, Rng& rng, McAccumulator& acc) {
        ResilienceConfig trial_cfg = config.base;
        trial_cfg.traffic_seed = rng.next();
        trial_cfg.faults.seed = rng.next();
        const ResilienceReport r =
            simulate_with_faults(net, params, trial_cfg);
        acc.observe("delivery_ratio", r.delivery_ratio);
        acc.observe("goodput_bps", r.goodput_bps);
        acc.observe("energy_spent_j", r.energy_spent_j);
        acc.observe("retransmit_energy_j", r.retransmit_energy_j);
        acc.observe("latency_s",
                    r.packets_delivered
                        ? r.delivered_latency_s /
                              static_cast<double>(r.packets_delivered)
                        : 0.0);
        acc.count("retransmissions", r.retransmissions);
        acc.count("arq_failures", r.arq_failures);
        acc.count("node_deaths", r.node_deaths);
        acc.count("route_repairs", r.route_repairs);
        acc.count("pu_preemptions", r.pu_preemptions);
        acc.count("rlnc_packets_sent", r.rlnc_packets_sent);
        acc.count("rlnc_overhead_packets", r.rlnc_overhead_packets);
        acc.count("rlnc_failures", r.rlnc_failures);
      });
  ResilienceEnsembleReport report;
  report.delivery_ratio = run.acc.stat("delivery_ratio");
  report.goodput_bps = run.acc.stat("goodput_bps");
  report.energy_spent_j = run.acc.stat("energy_spent_j");
  report.retransmit_energy_j = run.acc.stat("retransmit_energy_j");
  report.latency_s = run.acc.stat("latency_s");
  report.retransmissions =
      static_cast<std::size_t>(run.acc.counter("retransmissions"));
  report.arq_failures =
      static_cast<std::size_t>(run.acc.counter("arq_failures"));
  report.node_deaths =
      static_cast<std::size_t>(run.acc.counter("node_deaths"));
  report.route_repairs =
      static_cast<std::size_t>(run.acc.counter("route_repairs"));
  report.pu_preemptions =
      static_cast<std::size_t>(run.acc.counter("pu_preemptions"));
  report.rlnc_packets_sent =
      static_cast<std::size_t>(run.acc.counter("rlnc_packets_sent"));
  report.rlnc_overhead_packets =
      static_cast<std::size_t>(run.acc.counter("rlnc_overhead_packets"));
  report.rlnc_failures =
      static_cast<std::size_t>(run.acc.counter("rlnc_failures"));
  report.trials = config.trials;
  report.info = run.info;
  return report;
}

}  // namespace comimo
