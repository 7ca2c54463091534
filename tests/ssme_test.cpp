// Unit tests for SSME parameters and the privilege predicate (Section 4.1).
#include "core/ssme.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/chordless.hpp"
#include "graph/cycle_space.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace specstab {
namespace {

TEST(SsmeParamsTest, ClockSizeFormula) {
  // K = (2n-1)(diam+1)+2.
  const SsmeParams p = SsmeParams::from_dimensions(5, 3);
  EXPECT_EQ(p.alpha, 5);
  EXPECT_EQ(p.k, 9 * 4 + 2);
  const SsmeParams q = SsmeParams::from_dimensions(1, 0);
  EXPECT_EQ(q.k, 3);
}

TEST(SsmeParamsTest, ForGraphComputesDiameter) {
  const Graph g = make_path(6);
  const SsmeParams p = SsmeParams::for_graph(g);
  EXPECT_EQ(p.n, 6);
  EXPECT_EQ(p.diam, 5);
  EXPECT_EQ(p.k, 11 * 6 + 2);
}

TEST(SsmeParamsTest, DisconnectedThrows) {
  Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_THROW((void)SsmeParams::for_graph(g), std::invalid_argument);
}

TEST(SsmeParamsTest, PrivilegedValues) {
  // privileged_v = 2n + 2 diam id_v; the paper's two corner cases:
  // id 0 -> 2n, id n-1 -> (2n-2)(diam+1)+2.
  const SsmeParams p = SsmeParams::from_dimensions(7, 4);
  EXPECT_EQ(p.privileged_value(0), 14);
  EXPECT_EQ(p.privileged_value(6),
            (2 * 7 - 2) * (4 + 1) + 2);
  for (VertexId id = 0; id < 7; ++id) {
    EXPECT_LT(p.privileged_value(id), p.k);
    EXPECT_GE(p.privileged_value(id), 0);
  }
  EXPECT_THROW((void)p.privileged_value(7), std::out_of_range);
  EXPECT_THROW((void)p.privileged_value(-1), std::out_of_range);
}

TEST(SsmeParamsTest, PrivilegedValuesPairwiseFarApart) {
  // In Gamma_1 registers are pairwise within d_K <= diam; safety needs
  // distinct privileged values at ring distance > diam.
  for (VertexId n : {2, 3, 5, 8}) {
    for (VertexId diam : {1, 2, 4, 7}) {
      if (diam >= n) continue;
      const SsmeParams p = SsmeParams::from_dimensions(n, diam);
      const CherryClock clock = p.make_clock();
      for (VertexId a = 0; a < n; ++a) {
        for (VertexId b = a + 1; b < n; ++b) {
          EXPECT_GT(clock.ring_distance(p.privileged_value(a),
                                        p.privileged_value(b)),
                    diam)
              << "n=" << n << " diam=" << diam << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(SsmeParamsTest, ClockMustFitThe32BitRegister) {
  // Rings: K = (2n-1)(floor(n/2)+1)+2 is 2,147,465,111 at n = 46,340 and
  // passes INT32_MAX = 2,147,483,647 at n = 46,341.
  const SsmeParams ring = SsmeParams::for_graph(make_ring(46340));
  EXPECT_EQ(ring.k, 2147465111);
  EXPECT_EQ(ring.privileged_value(46339), 2147441940);
  const Graph too_large = make_ring(46341);
  EXPECT_THROW((void)SsmeParams::for_graph(too_large), std::invalid_argument);
  // Torus 1000 x 1000: 10^6 vertices, diam 1000.
  const SsmeParams torus = SsmeParams::for_graph(make_torus(1000, 1000));
  EXPECT_EQ(torus.k, 2001999001);
  EXPECT_EQ(torus.privileged_value(999999), 2001998000);
  // Ring 100,000: K = 10,000,150,001 would wrap to 1,410,215,409.
  try {
    (void)SsmeParams::from_dimensions(100000, 50000);
    ADD_FAILURE() << "K = 10,000,150,001 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("32-bit"), std::string::npos) << what;
  }
}

TEST(SsmeParamsTest, ParameterConstraintsOfBoulinierEtAl) {
  // alpha >= hole(g) - 2 and K > cyclo(g) must hold for every topology
  // (the paper's slack argument: hole, cyclo <= n < K, alpha = n).
  for (const Graph& g :
       {make_ring(9), make_path(7), make_complete(5), make_grid(3, 3),
        make_petersen(), make_wheel(6), make_random_connected(10, 0.3, 3)}) {
    const SsmeParams p = SsmeParams::for_graph(g);
    EXPECT_GE(p.alpha, longest_hole(g) - 2) << g.n();
    EXPECT_GT(p.k, cyclomatic_characteristic(g)) << g.n();
  }
}

TEST(SsmeProtocolTest, PrivilegePredicate) {
  const Graph g = make_path(3);  // n=3, diam=2
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  // privileged values: 6, 10, 14.
  Config<ClockValue> cfg{6, 0, 0};
  EXPECT_TRUE(proto.privileged(cfg, 0));
  EXPECT_FALSE(proto.privileged(cfg, 1));
  cfg = {0, 10, 14};
  EXPECT_FALSE(proto.privileged(cfg, 0));
  EXPECT_TRUE(proto.privileged(cfg, 1));
  EXPECT_TRUE(proto.privileged(cfg, 2));
  EXPECT_EQ(proto.count_privileged(g, cfg), 2);
  EXPECT_FALSE(proto.mutex_safe(g, cfg));
}

TEST(SsmeProtocolTest, GammaOneImpliesMutexSafety) {
  // The heart of Theorem 1: exhaustive check on a small instance that
  // every legitimate configuration has at most one privileged vertex.
  const Graph g = make_path(2);  // n=2, diam=1: K = 3*2+2 = 8
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const CherryClock& clock = proto.clock();
  for (ClockValue a = 0; a < clock.k(); ++a) {
    for (ClockValue b = 0; b < clock.k(); ++b) {
      const Config<ClockValue> cfg{a, b};
      if (proto.legitimate(g, cfg)) {
        EXPECT_TRUE(proto.mutex_safe(g, cfg)) << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(SsmeProtocolTest, EveryVertexPrivilegedSomewhereInGammaOne) {
  // Liveness needs every privileged value reachable inside Gamma_1: the
  // uniform configuration at v's privileged value is legitimate.
  const Graph g = make_ring(5);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  for (VertexId v = 0; v < g.n(); ++v) {
    const Config<ClockValue> cfg(
        static_cast<std::size_t>(g.n()),
        proto.params().privileged_value(v));
    EXPECT_TRUE(proto.legitimate(g, cfg));
    EXPECT_TRUE(proto.privileged(cfg, v));
    EXPECT_EQ(proto.count_privileged(g, cfg), 1);
  }
}

TEST(SsmeProtocolTest, DelegatesToUnison) {
  const Graph g = make_path(3);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const Config<ClockValue> cfg{0, 1, 1};
  EXPECT_EQ(proto.enabled(g, cfg, 0), proto.unison().enabled(g, cfg, 0));
  EXPECT_EQ(proto.rule_name(g, cfg, 0), "NA");
  EXPECT_EQ(proto.apply(g, cfg, 0), 1);
}

TEST(SsmeProtocolTest, SingleVertexSystem) {
  const Graph g(1);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  EXPECT_EQ(proto.params().k, 3);
  // Privileged value 2n = 2.
  const Config<ClockValue> cfg{2};
  EXPECT_TRUE(proto.privileged(cfg, 0));
  EXPECT_TRUE(proto.mutex_safe(g, cfg));
}

}  // namespace
}  // namespace specstab
