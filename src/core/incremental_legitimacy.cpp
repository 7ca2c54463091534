#include "core/incremental_legitimacy.hpp"

namespace specstab {
namespace {

// Compile-time proof that every factory product (and the generic
// wrappers) satisfies the engine's checker concept; the runtime behaviour
// is covered by tests/legitimacy_closure_test.cpp.
using Gamma1Checker = decltype(make_gamma1_checker(
    std::declval<const SsmeProtocol&>()));
using SafetyChecker = decltype(make_mutex_safety_checker(
    std::declval<const SsmeProtocol&>()));
using TokenChecker = decltype(make_single_token_checker(
    std::declval<const DijkstraRingProtocol&>()));
using MatchChecker = decltype(make_matching_checker(
    std::declval<const MatchingProtocol&>()));
using MinPlusOneChecker = decltype(make_min_plus_one_checker(
    std::declval<const MinPlusOneProtocol&>()));
using LeaderChecker = decltype(make_leader_election_checker(
    std::declval<const LeaderElectionProtocol&>(),
    std::declval<const Graph&>()));
using ColorChecker = decltype(make_coloring_checker(
    std::declval<const ColoringProtocol&>()));
using DriftChecker = decltype(make_unbounded_unison_checker(
    std::declval<const UnboundedUnisonProtocol&>()));

static_assert(IncrementalLegitimacy<Gamma1Checker, ClockValue>);
static_assert(IncrementalLegitimacy<SafetyChecker, ClockValue>);
static_assert(IncrementalLegitimacy<TokenChecker, DijkstraRingProtocol::State>);
static_assert(IncrementalLegitimacy<MatchChecker, MatchingProtocol::State>);
static_assert(
    IncrementalLegitimacy<MinPlusOneChecker, MinPlusOneProtocol::State>);
static_assert(IncrementalLegitimacy<LeaderChecker, LeaderState>);
static_assert(IncrementalLegitimacy<ColorChecker, ColoringProtocol::State>);
static_assert(
    IncrementalLegitimacy<DriftChecker, UnboundedUnisonProtocol::State>);
static_assert(IncrementalLegitimacy<RescanChecker<ClockValue>, ClockValue>);
static_assert(
    IncrementalLegitimacy<ClosureCounting<Gamma1Checker>, ClockValue>);
static_assert(IncrementalLegitimacy<AlwaysLegitimate, ClockValue>);
static_assert(HasScoreRange<AlwaysLegitimate, ClockValue>);

}  // namespace
}  // namespace specstab
