"""Budgeted anytime path navigation: UCB frontier + run budgets.

The paper's BFS enumerates every acyclic join path, which a traffic-serving
deployment cannot afford: path count is exponential in lake density, and a
latency-bounded query needs the *best paths it can find in time*, not all
of them.  This module supplies the three pieces that turn the discovery
traversal into an *anytime* algorithm (FeatNavigator / Hippasus direction,
see PAPERS.md):

* :class:`RunBudget` — a run-level wall-clock deadline and/or executed-hop
  cap, threaded from :class:`~repro.core.AutoFeatConfig` through
  ``discover`` / ``train_top_k``, the parallel wave scheduler and the
  :class:`~repro.service.DiscoveryService` per-request path;
* :class:`NavigationFrontier` — the traversal frontier, either in
  canonical FIFO order (the bit-parity baseline: exactly the paper's BFS /
  the DFS ablation) or as a priority queue scored by
  :class:`UcbFrontierPolicy`;
* :class:`UcbFrontierPolicy` — UCB1 arm statistics over hop-level
  features: one arm per hop *target table*, pulled every time a hop joins
  into that table, rewarded with the hop's bounded relevance/redundancy
  ranking signal (:func:`hop_reward`).  Frontier entries are scored
  ``observed value + exploration bonus``, so budgeted runs spend their
  hops on the transitively-promising parts of the join graph first.

Determinism contract (DESIGN.md §14):

* **No budget set** — navigation degenerates to the canonical FIFO order
  regardless of ``frontier_strategy``: every path is explored anyway, and
  canonical order is the one that keeps results bit-identical to the
  reference BFS on both execution backends.  (A priority order
  would reshuffle the streaming selector's batch sequence and change
  scores without changing the explored set — pure downside when nothing
  is pruned by the budget.)
* **Hop budget (`max_hops`)** — fully deterministic: the executed set is
  the first ``max_hops`` hops of the strategy's expansion order, which is
  itself budget-independent, so explored sets *nest* as the budget grows
  and regret (:func:`ranking_regret`) is monotonically non-increasing.
  The serial and processes backends execute the identical prefix.
* **Wall-clock budget (`budget_seconds`)** — anytime, not bit-reproducible:
  where the deadline lands depends on machine speed.  The run still
  returns within budget plus one hop's slack (one wave's slack on the
  ``processes`` backend), marks ``budget_exhausted`` and reports what it
  explored.

Deadlines are ``time.monotonic`` timestamps.  On the platforms this repo
targets (Linux) the monotonic clock is system-wide, so a deadline computed
on the coordinator is meaningful inside process-pool workers too; worker
checks are a best-effort early abort and the coordinator re-checks
authoritatively between waves either way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..errors import ConfigError
from ..obs.metrics import MetricsRegistry

__all__ = [
    "FRONTIER_STRATEGIES",
    "DEFAULT_FRONTIER_EXPLORATION",
    "ucb_score",
    "UcbArm",
    "UcbFrontierPolicy",
    "FrontierEntry",
    "NavigationFrontier",
    "RunBudget",
    "NavigationStats",
    "hop_reward",
    "ranking_regret",
]

#: The two frontier orderings a *budgeted* run can use.
#:
#: * ``ucb`` — priority queue scored by :class:`UcbFrontierPolicy`
#:   (the default: spend the budget on promising subgraphs first);
#: * ``fifo`` — canonical order (BFS levels, or LIFO under the DFS
#:   ablation): the budget simply truncates the reference traversal.
#:
#: Unbudgeted runs always traverse in canonical order — see the module
#: docstring for why.
FRONTIER_STRATEGIES = ("fifo", "ucb")

#: UCB1 exploration constant (the classic √(2·ln t / n) weight).
DEFAULT_FRONTIER_EXPLORATION = 0.5


def ucb_score(
    pulls: int, total_reward: float, total_pulls: int, exploration: float
) -> float:
    """UCB1 upper confidence bound of one arm.

    Unpulled arms score ``+inf`` — cold-start optimism with ties broken
    deterministically by the *caller's* stable ordering, never by float
    noise.  The exploration bonus uses ``log(total_pulls + 1)`` so it is
    strictly positive from the very first pull: the classic
    ``log(max(total_pulls, 1))`` form zeroes the bonus while
    ``total_pulls <= 1``, which collapses early tie-breaking onto raw
    means computed from a single sample (the cold-start bug this replaces
    in :mod:`repro.baselines.mab`).
    """
    if pulls <= 0:
        return math.inf
    mean = total_reward / pulls
    return mean + exploration * math.sqrt(
        2.0 * math.log(total_pulls + 1) / pulls
    )


@dataclass
class UcbArm:
    """Running reward statistics of one bandit arm.

    The shared arm record behind both the MAB baseline's (source, target)
    join actions and the navigation frontier's per-target-table arms.
    """

    #: The target table (frontier) or ``(source, target)`` pair (MAB).
    key: str | tuple[str, str] = ""
    pulls: int = 0
    total_reward: float = 0.0

    def pull(self, reward: float) -> None:
        """Record one pull of this arm with its observed reward."""
        self.pulls += 1
        self.total_reward += reward

    def ucb(self, total_pulls: int, exploration: float) -> float:
        return ucb_score(self.pulls, self.total_reward, total_pulls, exploration)


def hop_reward(score: float, completeness: float) -> float:
    """Bounded [0, 1] reward of one executed hop.

    ``score`` is the hop's Algorithm-2 ranking signal (cardinality-
    normalised relevance/redundancy means, roughly in [-1, 1]);
    ``completeness`` is the join-quality fraction the pruning rule
    inspects.  Both are pure functions of the hop's own data, so the
    reward — and therefore the UCB expansion order — is independent of
    the budget that truncates the run (the nesting property the anytime
    regret guarantee rests on).  Pruned and infeasible hops reward 0.
    """
    squashed = 0.5 * (1.0 + max(-1.0, min(1.0, score)))
    return max(0.0, min(1.0, completeness)) * squashed


@dataclass
class FrontierEntry:
    """One expandable node of the traversal: a path and its joined sample."""

    #: Canonical insertion index (merge order) — the FIFO key and the
    #: deterministic tie-break under priority ordering.
    order: int
    path: object
    table: object
    features: tuple[str, ...] = ()
    #: Observed value of the hop that created this node (0 for the root).
    reward: float = 0.0


class UcbFrontierPolicy:
    """UCB1 scoring of frontier entries over per-target-table arms.

    One arm per hop target table; every *executed* hop into a table pulls
    its arm (pruned hops reward 0, surviving hops :func:`hop_reward`).
    A frontier entry's priority is::

        entry.reward + arm(entry.path.terminal).ucb(total_pulls, c)

    (``c`` is :data:`DEFAULT_FRONTIER_EXPLORATION`) — the observed value
    of reaching the node plus optimism about tables whose joins have been
    productive (or never tried: unpulled arms are ``+inf``, so the root
    expands first and freshly-reached tables are probed before well-known
    ones are milked).
    """

    def __init__(self):
        self.total_pulls = 0
        self._arms: dict[str, UcbArm] = {}

    def arm(self, table: str) -> UcbArm:
        if table not in self._arms:
            self._arms[table] = UcbArm(key=table)
        return self._arms[table]

    def update(self, table: str, reward: float) -> None:
        """Record one executed hop into ``table`` with its reward."""
        self.arm(table).pull(reward)
        self.total_pulls += 1

    def priority(self, entry: FrontierEntry) -> float:
        # A table no hop has reached yet scores as an unpulled arm without
        # being registered: ``n_arms`` counts pulled tables only.
        arm = self._arms.get(entry.path.terminal) or UcbArm()
        return entry.reward + arm.ucb(self.total_pulls, DEFAULT_FRONTIER_EXPLORATION)

    @property
    def n_arms(self) -> int:
        return len(self._arms)


class NavigationFrontier:
    """The traversal frontier under a pluggable expansion order.

    ``strategy="fifo"`` reproduces the reference orders exactly: pop the
    oldest entry under BFS, the newest under the DFS ablation.
    ``strategy="ucb"`` pops the entry with the highest
    :meth:`UcbFrontierPolicy.priority`; ties break on the lowest
    canonical ``order`` (the entry serial BFS would have reached first),
    so the expansion order is a deterministic function of the arm
    statistics alone.  Priorities are recomputed at every pop — arms move
    with each merged hop, and a linear scan over the (small) frontier is
    both simpler and stricter about determinism than a staleness-prone
    heap.
    """

    def __init__(
        self,
        traversal: str = "bfs",
        strategy: str = "fifo",
        policy: UcbFrontierPolicy | None = None,
    ):
        if strategy not in FRONTIER_STRATEGIES:
            raise ConfigError(
                f"unknown frontier strategy {strategy!r}; "
                f"expected one of {list(FRONTIER_STRATEGIES)}"
            )
        if strategy == "ucb" and policy is None:
            raise ConfigError("the 'ucb' frontier strategy needs a policy")
        self.traversal = traversal
        self.strategy = strategy
        self.policy = policy
        self._entries: list[FrontierEntry] = []
        self._next_order = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(
        self,
        path,
        table,
        features: tuple[str, ...] = (),
        reward: float = 0.0,
    ) -> FrontierEntry:
        """Append a node in canonical (merge) order."""
        entry = FrontierEntry(
            order=self._next_order,
            path=path,
            table=table,
            features=features,
            reward=reward,
        )
        self._next_order += 1
        self._entries.append(entry)
        return entry

    def pop(self) -> FrontierEntry:
        """Remove and return the next entry to expand."""
        if self.strategy == "ucb":
            best = max(
                range(len(self._entries)),
                key=lambda i: (
                    self.policy.priority(self._entries[i]),
                    -self._entries[i].order,
                ),
            )
            return self._entries.pop(best)
        if self.traversal == "bfs":
            return self._entries.pop(0)
        return self._entries.pop()

    def drain_level(self) -> list[FrontierEntry]:
        """Remove and return the whole current frontier, canonical order.

        The level-synchronous wave the parallel BFS scheduler dispatches.
        """
        entries, self._entries = self._entries, []
        return entries


class RunBudget:
    """One run's anytime budget: a wall-clock deadline and/or a hop cap.

    ``deadline`` is an absolute ``time.monotonic`` timestamp (or None);
    ``max_hops`` caps *executed* hops — enumerated-but-never-executed hops
    (similarity-pruned options, fan-out cut short by expiry) do not count.
    An inactive budget (both None) never trips, so the unbudgeted paths
    stay byte-for-byte on the reference traversal.
    """

    def __init__(
        self, deadline: float | None = None, max_hops: int | None = None
    ):
        self.deadline = deadline
        self.max_hops = max_hops

    @staticmethod
    def compute_deadline(budget_seconds: float | None) -> float | None:
        """An absolute monotonic deadline ``budget_seconds`` from now."""
        if budget_seconds is None:
            return None
        return time.monotonic() + budget_seconds

    @classmethod
    def start(
        cls,
        budget_seconds: float | None,
        max_hops: int | None,
        deadline: float | None = None,
    ) -> "RunBudget":
        """Begin a run's budget; an explicit ``deadline`` (e.g. the shared
        discover+train deadline of ``augment``, or a service request's)
        takes precedence over a fresh ``budget_seconds`` countdown."""
        if deadline is None:
            deadline = cls.compute_deadline(budget_seconds)
        return cls(deadline=deadline, max_hops=max_hops)

    @property
    def active(self) -> bool:
        return self.deadline is not None or self.max_hops is not None

    def expired(self) -> bool:
        """True once the wall-clock deadline has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def exhausted(self, hops_executed: int) -> bool:
        """True once either limit would be violated by one more hop."""
        if self.max_hops is not None and hops_executed >= self.max_hops:
            return True
        return self.expired()


@dataclass(frozen=True)
class NavigationStats:
    """Frozen per-run navigation accounting, carried on results.

    ``frontier_unexplored`` counts the frontier entries (expandable nodes)
    the budget left behind — 0 on complete runs.  ``best_score`` is the
    top ranking score among the paths actually ranked, the anytime
    "best-k-so-far" headline number.
    """

    strategy: str = "fifo"
    budget_seconds: float | None = None
    max_hops: int | None = None
    hops_executed: int = 0
    budget_exhausted: bool = False
    frontier_unexplored: int = 0
    best_score: float = 0.0
    arms_tracked: int = 0

    def publish(
        self, registry: MetricsRegistry, prefix: str = "navigation"
    ) -> MetricsRegistry:
        """Publish the budget gauges into ``registry``."""
        registry.gauge(f"{prefix}.budget_exhausted").set(
            1 if self.budget_exhausted else 0
        )
        registry.gauge(f"{prefix}.hops_executed").set(self.hops_executed)
        registry.gauge(f"{prefix}.frontier_unexplored").set(
            self.frontier_unexplored
        )
        registry.gauge(f"{prefix}.best_score").set(round(self.best_score, 6))
        if self.max_hops is not None:
            registry.gauge(f"{prefix}.max_hops").set(self.max_hops)
        if self.budget_seconds is not None:
            registry.gauge(f"{prefix}.budget_seconds").set(self.budget_seconds)
        return registry

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "budget_seconds": self.budget_seconds,
            "max_hops": self.max_hops,
            "hops_executed": self.hops_executed,
            "budget_exhausted": self.budget_exhausted,
            "frontier_unexplored": self.frontier_unexplored,
            "best_score": round(self.best_score, 6),
            "arms_tracked": self.arms_tracked,
        }

    def describe(self) -> str:
        state = "exhausted" if self.budget_exhausted else "complete"
        return (
            f"{self.strategy} navigation, {self.hops_executed} hops, "
            f"budget {state}, {self.frontier_unexplored} frontier entries "
            f"unexplored"
        )


def ranking_regret(full, partial) -> float:
    """Regret of a budgeted discovery run against the full reference run.

    Every path the budgeted run found is scored *by the full run's score
    for that path identity* — the streaming selector's state differs
    between orderings, so comparing a path's own in-run scores across
    runs would conflate navigation regret with selection-order noise.
    Regret is the full run's best score minus the best full-run score
    among the paths the budgeted run discovered, normalised by the full
    best (0 = the budget found a best-scoring path, 1 = it found nothing
    of value).  Monotone non-increasing in the discovered set, hence in
    the hop budget.
    """
    full_scores = {r.path.describe(): r.score for r in full.ranked_paths}
    if not full_scores:
        return 0.0
    best_full = max(full_scores.values())
    found = [
        full_scores[r.path.describe()]
        for r in partial.ranked_paths
        if r.path.describe() in full_scores
    ]
    best_found = max(found) if found else 0.0
    denom = max(abs(best_full), 1e-12)
    return max(0.0, (best_full - best_found) / denom)
