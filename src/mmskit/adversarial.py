"""Hard instance families and the scripted-responder harness.

Three families: ``ordinalTight`` (identical agents that leave one bag just
short of a full share under bag filling), ``hard1`` (a concrete instance
that caps what any rank beyond 2 can be promised), and ``hard2`` (a scripted
run in which only the target agent answers truthfully, capping what can be
proven when the other agents' answers are unconstrained).

Family parameters follow the 1-based rank convention of the threshold list:
``i`` is a rank in 1..n. Reported agents are 0-indexed like everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Allocation,
    Instance,
    Partition,
    PriorityRanking,
    ThresholdList,
    as_fraction,
    bundle_value,
    check_int,
    check_ranked,
    scale_row,
)
from .errors import GuaranteeViolation, InputError
from .ordinal import run_ordinal
# TruthfulResponder is not used here; it stays importable because perfbench/spans.py replaces it in this module.
from .rbf import Bag, Transcript, TruthfulResponder, reduction_shapes, run_rbf, run_rbf_truthful
from .verify import AgentCheck, check_1_out_of_d, check_witness

# Cap on the values (agents x goods) of an ordinalTight or hard2 family,
# checked from its parameters before anything is built. It admits both
# families up to n = 58 at t = 3.
FAMILY_MAX_VALUES = 10_000


# The families that read each optional parameter of HardInstanceSpec.
_READ_BY = {"i": ("hard1", "hard2"), "k1": ("hard2",), "k2": ("hard2",), "t": ("hard2",)}


@dataclass(frozen=True)
class HardInstanceSpec:
    """Which family to build, at which size, aimed at which rank."""

    family: str  # "ordinalTight" | "hard1" | "hard2"
    n: int
    i: int | None = None  # target rank, 1-based (hard1 needs 3 <= i <= n)
    k1: int | None = None
    k2: int | None = None
    t: int | None = None

    def __post_init__(self):
        if self.family not in ("ordinalTight", "hard1", "hard2"):
            raise InputError(f"unknown family {self.family!r}")
        check_int("n", self.n, 3 if self.family == "hard1" else 2)
        for name in ("i", "k1", "k2", "t"):
            if getattr(self, name) is not None and self.family not in _READ_BY[name]:
                raise InputError(f"{name} is not read with {self.family}")
        if self.family == "hard1":
            check_int("i", self.i, 3, self.n)
            return  # hard1's size is set by epsilon, which gen_hard1 caps
        if self.family == "hard2":
            check_int("i", self.i, 2, self.n)
            check_int("k1", self.k1, 1)
            check_int("k2", self.k2, 0)
            check_int("t", self.t, 3)
            if self.k1 + self.k2 >= self.i or 2 * self.k1 + self.k2 > self.n:
                raise InputError("hard2 needs k1 + k2 < i and 2*k1 + k2 <= n")
            values = 2 * self.n + (self.n - self.k1 - self.k2) ** 2 * self.t
        else:  # ordinalTight: n identical rows of 2n + 1 + 3(d - n) goods
            values = self.n * (2 * self.n + 1 + 3 * ((4 * self.n - 2) // 3 - self.n))
        if values > FAMILY_MAX_VALUES:
            raise InputError(
                f"{self.family} family would hold {values} values, more than {FAMILY_MAX_VALUES}"
            )


# ---------------------------------------------------------------------------
# ordinalTight


@dataclass(frozen=True)
class OrdinalTightFamily:
    instance: Instance
    d: int
    witness: Partition  # shared d-share partition with every part worth 1


def gen_ordinal_tight(n: int) -> OrdinalTightFamily:
    """All agents share one valuation that defeats bag filling at
    d = floor((4n-2)/3): every initial bag is worth exactly 1 - 1/(3n)."""
    HardInstanceSpec("ordinalTight", n)
    d = (4 * n - 2) // 3
    m = 2 * n + 1 + 3 * (d - n)
    # 2/3 - ((j + 2) // 2) / (3n) for the first 2n goods, 1/3 for the rest.
    row = scale_row([(2 * n - (j + 2) // 2, 3 * n) if j < 2 * n else (1, 3) for j in range(m)])
    inst = Instance((row,) * n, m)
    # One partition with every part worth exactly 1 (1-indexed construction).
    parts: list[frozenset[int]] = []
    for k in range(1, n):
        parts.append(frozenset({k - 1, 2 * n - 1 - k - 1}))
    for k in range(n, d + 1):
        parts.append(
            frozenset({k + n - 1 - 1, 2 * d + n - k - 1, 2 * d - n + k + 1 - 1})
        )
    witness = Partition(tuple(parts))
    if violations := check_witness(inst, 0, witness):
        raise GuaranteeViolation(f"tight-family {violations[0]}")
    return OrdinalTightFamily(inst, d, witness)


# ---------------------------------------------------------------------------
# hard1


# Cap on hard1's good count n/epsilon, which a short epsilon literal could
# make arbitrarily large. ``demo`` builds about 4n goods and ``gen``'s default
# epsilon 1/(12n) builds 12n^2, so the cap admits the default up to n = 91.
HARD1_MAX_GOODS = 100_000


@dataclass(frozen=True)
class Hard1Family:
    instance: Instance
    alpha: Fraction  # the cap 3n/(3n+i-2) on rank i's threshold
    epsilon: Fraction
    witness: Partition  # n-share partition of the rich agents, parts worth 1
    rich_agents: tuple[int, ...]  # agents valuing goods like the target rank


def gen_hard1(n: int, i: int, epsilon: Fraction) -> Hard1Family:
    """Agents 0..i-1 share a valuation whose every reduction shape is worth
    at most alpha_i; the rest value every good at epsilon.

    ``epsilon`` must be a unit fraction (the flat agents own n/epsilon goods),
    and n/epsilon at most ``HARD1_MAX_GOODS``.
    """
    HardInstanceSpec("hard1", n, i=i)
    epsilon = as_fraction(epsilon)
    if epsilon <= 0 or epsilon.numerator != 1:
        raise InputError(f"epsilon must be a positive unit fraction, got {epsilon}")
    if n / epsilon < 2 * n + i - 1:
        raise InputError("epsilon too large: flat agents need >= 2n+i-1 goods")
    if n / epsilon > HARD1_MAX_GOODS:
        raise InputError(f"epsilon too small: n/epsilon exceeds {HARD1_MAX_GOODS} goods")
    den = 3 * n + i - 2  # the rich row's values are multiples of delta = 1/den
    alpha = Fraction(3 * n, den)
    m = int(n / epsilon)
    rich_row = scale_row(
        [(2 * n - (j + 2) // 2 if j < 2 * n else n if j < 2 * n + i - 1 else 0, den) for j in range(m)]
    )
    flat_row = ((1,) * m, epsilon.denominator)
    inst = Instance((rich_row,) * i + (flat_row,) * (n - i), m)

    # Rich agents' n-share partition with every part worth exactly 1
    # (1-indexed): pairs {j, 2k+1-j} for j <= k, then triples
    # {k+j, 2n+k+1-j, 2n+j-k} with one positive tail good each.
    k = n - i + 1
    parts = [frozenset({j - 1, 2 * k + 1 - j - 1}) for j in range(1, k + 1)]
    parts += [
        frozenset({k + j - 1, 2 * n + k + 1 - j - 1, 2 * n + j - k - 1})
        for j in range(k + 1, n + 1)
    ]
    tail = frozenset(range(2 * n + i - 1, m))  # zero-valued for rich agents
    if tail:
        parts[0] = parts[0] | tail
    witness = Partition(tuple(parts))
    if violations := check_witness(inst, 0, witness):
        raise GuaranteeViolation(f"hard1 {violations[0]}")
    return Hard1Family(inst, alpha, epsilon, witness, tuple(range(i)))


def _unit_fraction_below(x: Fraction) -> Fraction:
    """The largest 1/k strictly below x."""
    if x <= 0:
        raise InputError(f"need a positive bound, got {x}")
    k = x.denominator // x.numerator + 1
    return Fraction(1, k)


# ---------------------------------------------------------------------------
# hard2


class ScriptedHard2Responder:
    """The hard2 script for one run: answers every query and picks each filler's bag.

    The target agent answers truthfully, in the units of her row. Non-target
    agents answer 0 or 1 in units of 1: they decline every first-round
    reduction shape. Agents holding the k1 + k2 best ranks claim any bag
    containing a top good; everyone else declines bags until one holds more
    than (n - k1 - k2) * t + 2 filler goods. ``choose_bag`` fills the open
    bags round-robin, so that never happens, and the run exhausts the
    fillers and ends on the leftover path.
    """

    def __init__(self, family: "Hard2Family"):
        self.family = family
        self.num_agents = family.n
        self.num_goods = family.instance.num_goods
        self.decline_shapes = frozenset(
            reduction_shapes(range(family.instance.num_goods), family.n)
        )
        self.last_filled = -1
        # Each answer is a sum over the bag's goods, grown with the bag: the
        # target's values, a 1 per top good, or a 1 per filler good.
        m, rich = self.num_goods, family.k1 + family.k2
        self._rich = rich
        self._cap = (family.n - rich) * family.t + 2
        self._target_row, self._target_unit = family.instance.scaled[0]
        self._tops = (1,) * rich + (0,) * (m - rich)
        self._fillers = (0,) * (2 * family.n) + (1,) * (m - 2 * family.n)
        self._target_sums: dict[Bag, int] = {}
        self._top_sums: dict[Bag, int] = {}
        self._filler_sums: dict[Bag, int] = {}

    def unit(self, agent: int) -> int:
        check_int("agent", agent, 0, self.num_agents - 1)
        return self._target_unit if agent == self.family.target_agent else 1

    def value(self, agent: int, goods: Bag) -> int:
        if agent.__class__ is not int or not 0 <= agent < self.num_agents:
            check_int("agent", agent, 0, self.num_agents - 1)
        if agent == self.family.target_agent:
            return goods.total(self._target_row, self._target_sums)
        if goods.size <= 3 and goods.goods in self.decline_shapes:  # a shape has at most 3 goods
            return 0
        if agent < self._rich:
            return 1 if goods.total(self._tops, self._top_sums) else 0
        return 1 if goods.total(self._fillers, self._filler_sums) > self._cap else 0

    def choose_bag(self, open_bags: list[int]) -> int:
        """The first open bag after the last one filled, wrapping around."""
        later = [b for b in open_bags if b > self.last_filled]
        self.last_filled = later[0] if later else open_bags[0]
        return self.last_filled


@dataclass(frozen=True)
class Hard2Family:
    n: int
    i: int  # target rank, 1-based
    k1: int
    k2: int
    t: int
    alpha: Fraction
    epsilon: Fraction
    target_agent: int  # 0-indexed; holds rank i under the identity ranking
    instance: Instance  # single row: the target agent's valuation, ordered
    witness: Partition  # her n-share partition, four groups of unit parts


def gen_hard2_responders(n: int, i: int, k1: int, k2: int, t: int) -> Hard2Family:
    """Build the target valuation and scripted answers for the oblivious cap.

    The target agent owns k1+k2 goods worth alpha = 1 - k1/(3(n-k2)), k2
    goods worth 1-alpha, 2n-k1-2k2 goods worth 1/3, and (n-k1-k2)^2 * t
    goods worth epsilon = 1/(3t(n-k2)); her share partition below certifies
    that this valuation is unit-normalized.
    """
    HardInstanceSpec("hard2", n, i=i, k1=k1, k2=k2, t=t)
    den = 3 * t * (n - k2)
    alpha = 1 - Fraction(k1, 3 * (n - k2))
    epsilon = Fraction(1, den)
    filler_total = (n - k1 - k2) ** 2 * t
    thirds = 2 * n - k1 - 2 * k2
    # Over epsilon's denominator, the fillers' 1s keep the row in lowest terms.
    top = den - k1 * t  # alpha, in units of epsilon
    ints = [top] * (k1 + k2) + [den // 3] * thirds + [den - top] * k2 + [1] * filler_total
    m = len(ints)
    inst = Instance(((tuple(ints), den),), m)

    # Four groups of unit parts. Good layout: alphas at [0, k1+k2), thirds at
    # [k1+k2, 2n-k2), complements at [2n-k2, 2n), fillers from 2n on.
    parts: list[frozenset[int]] = []
    fillers = list(range(2 * n, m))
    for j in range(k1):  # one alpha + k1*t fillers
        chunk, fillers = fillers[: k1 * t], fillers[k1 * t:]
        parts.append(frozenset({j} | set(chunk)))
    for j in range(k2):  # one alpha + its complement
        parts.append(frozenset({k1 + j, 2 * n - k2 + j}))
    third_ids = list(range(k1 + k2, 2 * n - k2))
    for j in range(k1):  # three thirds
        parts.append(frozenset(third_ids[3 * j: 3 * j + 3]))
    rest_thirds = third_ids[3 * k1:]
    for j in range(n - 2 * k1 - k2):  # two thirds + t*(n-k2) fillers
        chunk, fillers = fillers[: t * (n - k2)], fillers[t * (n - k2):]
        parts.append(frozenset(set(rest_thirds[2 * j: 2 * j + 2]) | set(chunk)))
    witness = Partition(tuple(parts))
    if violations := check_witness(inst, 0, witness):
        raise GuaranteeViolation(f"hard2 {violations[0]}")
    return Hard2Family(n, i, k1, k2, t, alpha, epsilon, i - 1, inst, witness)


# ---------------------------------------------------------------------------
# Failure demonstrations


@dataclass(frozen=True)
class FailureReport:
    family: str
    n: int
    thresholds: ThresholdList
    shortfalls: tuple[AgentCheck, ...]  # the checks not ok, in agent order; [0] is the witness
    reduction_count: int
    ran_out_of_goods: bool  # the family's bag filling ran out of goods
    allocation: Allocation
    transcript: Transcript | None = None


def _thresholds(
    n: int, i: int, default: Fraction, cap: Fraction, thresholds: ThresholdList | None
) -> ThresholdList:
    """``thresholds``, or 1 before rank i and ``default`` from rank i on;
    rank i's threshold must exceed the family's ``cap``."""
    if thresholds is None:
        thresholds = ThresholdList((Fraction(1),) * (i - 1) + (default,) * (n - i + 1))
    check_ranked(n, thresholds)
    tau = thresholds.taus[i - 1]
    if tau <= cap:
        raise InputError(f"rank {i} threshold must exceed the family cap {cap}, got {tau}")
    return thresholds


def demonstrate_failure(
    spec: HardInstanceSpec, thresholds: ThresholdList | None = None
) -> FailureReport:
    """Run the family's algorithm and report the agents who fall short.

    ordinalTight's targets are full shares; it takes no thresholds. For
    hard1/hard2 the default thresholds put the target rank just above the
    family's cap (cap + 1/1000, and cap + 3*epsilon respectively); a custom
    list must keep the target rank strictly above the cap. Raises if no
    shortfall materializes, since that would contradict the construction.
    """
    n, i = spec.n, spec.i
    ranking = PriorityRanking.identity(n)
    transcript = None
    if spec.family == "ordinalTight":
        if thresholds is not None:
            raise InputError("ordinalTight takes no thresholds; its targets are full shares")
        fam = gen_ordinal_tight(n)
        alloc, run = run_ordinal(fam.instance, witnesses=(fam.witness,) * n)
        thresholds = ThresholdList.constant(n, 1)
        checks = check_1_out_of_d(fam.instance, alloc, fam.d, shares=(1,) * n).checks
        ran_out = run.terminated_early
    elif spec.family == "hard1":
        alpha = Fraction(3 * n, 3 * n + i - 2)
        thresholds = _thresholds(n, i, alpha + Fraction(1, 1000), alpha, thresholds)
        fam = gen_hard1(n, i, _unit_fraction_below(thresholds.taus[-1] / 3))
        run = run_rbf_truthful(fam.instance, thresholds, ranking)
        alloc, transcript = run.allocation, run.transcript
        # Only the rich agents are meant to fall short.
        checks = [c for c in run.report.checks if c.agent in fam.rich_agents]
        ran_out = transcript.ran_out_of_goods
    else:  # hard2
        fam = gen_hard2_responders(n, i, spec.k1, spec.k2, spec.t)
        cap = fam.alpha + 2 * fam.epsilon
        default = min(Fraction(1), fam.alpha + 3 * fam.epsilon)
        thresholds = _thresholds(n, i, default, cap, thresholds)
        alloc, transcript = run_rbf(ScriptedHard2Responder(fam), thresholds, ranking)
        value = bundle_value(fam.instance, 0, alloc.bundles[fam.target_agent])
        checks = [AgentCheck(fam.target_agent, value, thresholds.taus[i - 1], value >= cap)]
        ran_out = transcript.ran_out_of_goods
    shortfalls = tuple(c for c in checks if not c.ok)
    if not shortfalls:
        raise GuaranteeViolation(f"{spec.family} run left no agent short; construction broken")
    return FailureReport(
        family=spec.family,
        n=n,
        thresholds=thresholds,
        shortfalls=shortfalls,
        reduction_count=len(transcript.reductions) if transcript else 0,
        ran_out_of_goods=ran_out,
        allocation=alloc,
        transcript=transcript,
    )
