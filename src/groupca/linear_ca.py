"""Rank-based analysis of linear cellular automata.

Window restrictions of a linear automaton are exact block matrices; their
ranks and kernels drive everything here: the algebraic mean dimension
along boxes (exact rationals, never floats), pre-injectivity via
finite-support kernels, surjectivity via the rank of one box, left-inverse
synthesis by solving a linear system per radius, and a consistency report
tying the three verdicts together.

All verdicts are window-bounded semi-decisions: a negative verdict carries
a finite witness, a positive one certifies the chain's windows up to
r_max.  Each audit rests on a property that persists from a window to
every larger one: kernels and left inverses walk the chain once
(``_walk_chain``), and surjectivity reads the last window's rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .ca import CAError, CellularAutomaton, LinearRule, Pattern, compose, group_ring_of
from .groups import BALL_CAP, FiniteSubset, GroupError, ZdGroup, ball, box_window, folner_box
from .rings import Echelon, ExactMatrix, rank_kernel_sparse


def _require_linear(ca: CellularAutomaton):
    if not isinstance(ca.rule, LinearRule):
        raise CAError("rank analysis needs a linear rule")
    return ca.rule


def chain_window(group, r: int) -> FiniteSubset:
    """Window chain for checks: boxes [-r, r]^d on Z^d, balls elsewhere."""
    if isinstance(group, ZdGroup):
        return box_window(group, r)
    return ball(group, r)


def _check_boxes(group: ZdGroup, sides):
    """Refuse a chain of Z^d boxes, one per side length, that holds more than BALL_CAP elements in all.

    Balls off Z^d are bounded one by one by their ball plans.
    """
    total = 0
    for side in sides:
        total += side**group.d
        if total > BALL_CAP:
            raise GroupError("a window chain on %s would hold more than %d elements" % (group.spec_string(), BALL_CAP))


@dataclass
class WindowMatrix:
    matrix_rows: list  # sparse rows, dict col -> scalar
    nrows: int
    ncols: int
    in_domain: FiniteSubset
    out_domain: FiniteSubset
    field: object


def placed_rows(symbol, n: int, placements) -> list:
    """A linear rule laid onto finite cells: the n sparse rows of each output point.

    ``placements`` gives, per output point in order, the column block of
    each entry of ``symbol`` in its order, or None for an entry whose cell
    lies outside the input cells; block c holds the entry's n x n matrix in
    the columns c*n .. c*n + n-1.
    """
    mats = [m.rows for m in symbol.values()]
    rows = []
    for cols in placements:
        blocks = [(c * n, m) for c, m in zip(cols, mats) if c is not None]
        for i in range(n):
            row = {}
            for base, m in blocks:
                for j, v in enumerate(m[i]):
                    if v:
                        row[base + j] = v
            rows.append(row)
    return rows


def window_matrix(ca: CellularAutomaton, mode: str, window: FiniteSubset) -> WindowMatrix:
    """Block matrix of a window restriction.

    mode "plus": inputs on window*M, outputs on the window.
    mode "supported": inputs are configurations supported in the window
    (zero background); outputs on window*(M u M^-1), which contains the
    full support of any image of such a configuration.
    """
    rule = _require_linear(ca)
    memory = ca.memory_set()
    hs = list(rule.symbol)
    if mode == "plus":
        out_domain = window
        # the cells of output point g are g*h, h in the memory
        cells = [[g * h for h in hs] for g in window]
        in_domain = FiniteSubset(ca.group, [c for row in cells for c in row])
    elif mode == "supported":
        in_domain = window
        out_domain = window.product(memory.union(memory.inverses()))
        cells = [[g * h for h in hs] for g in out_domain]
    else:
        raise CAError("unknown window mode %r" % mode)
    n, position = rule.n, in_domain.position
    rows = placed_rows(rule.symbol, n, ([position(c) for c in row] for row in cells))
    return WindowMatrix(matrix_rows=rows, nrows=n * len(out_domain), ncols=n * len(in_domain),
                        in_domain=in_domain, out_domain=out_domain, field=rule.field)


def gamma_dim(ca: CellularAutomaton, window: FiniteSubset) -> int:
    """Dimension of the window image: rank of the plus-mode window matrix."""
    wm = window_matrix(ca, "plus", window)
    rank, _ = rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=False)
    return rank


@dataclass
class MdimReport:
    sequence: list  # Fractions q_i
    estimate: Fraction
    i_max: int


def mdim_estimate(ca: CellularAutomaton, i_max: int) -> MdimReport:
    """q_i = gamma_dim on the box [0,i)^d divided by i^d; estimate = max of the tail half."""
    _require_linear(ca)
    group = ca.group
    if not isinstance(group, ZdGroup):
        raise CAError("mean dimension estimates need Z^d")
    if i_max < 1:
        raise CAError("i_max must be >= 1")
    _check_boxes(group, range(1, i_max + 1))
    seq = []
    for i in range(1, i_max + 1):
        box = folner_box(group, i)
        seq.append(Fraction(gamma_dim(ca, box), len(box)))
    tail = seq[i_max // 2 :]
    return MdimReport(sequence=seq, estimate=max(tail), i_max=i_max)


def _walk_chain(group, probe, r_max: int):
    """The first non-None ``probe(r)`` for r = 0..r_max, or None.

    The property probed must persist along the nested window chain, so r = 0
    is tried, then r_max, and 1 .. r_max-1 are scanned only when r_max has it.
    """
    if isinstance(group, ZdGroup):
        _check_boxes(group, range(1, 2 * r_max + 2, 2))
    first = probe(0) if r_max >= 0 else None
    if first is not None or r_max <= 0:
        return first
    top = probe(r_max)
    # map is lazy: the scan stops at the first radius with the property
    return top and next(filter(None, map(probe, range(1, r_max))), top)


@dataclass
class PreInjectivityReport:
    verdict: str  # "not_pre_injective" | "kernel_free_up_to"
    r_max: int
    witness: Pattern = None
    witness_radius: int = None


def preinjectivity_check(ca: CellularAutomaton, r_max: int = 8) -> PreInjectivityReport:
    """Search finite-support kernels on a growing window chain.

    A nonzero kernel vector is a finitely supported configuration mapped to
    zero, i.e. a pre-injectivity failure; for linear automata the converse
    holds as well, so a kernel-free result certifies every configuration
    pair differing only inside the tested windows.

    Kernels persist along the chain: a configuration supported in W with
    image 0 is also supported in every W' containing W.  The witness is
    kernel[0] of the first window with a kernel.
    """
    n = _require_linear(ca).n

    def witness(r):
        window = chain_window(ca.group, r)
        wm = window_matrix(ca, "supported", window)
        kernel = rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=True)[1]
        if not kernel:
            return None
        values = {g: tuple(kernel[0][window.position(g) * n + j] for j in range(n)) for g in window}
        return PreInjectivityReport("not_pre_injective", r_max, Pattern(window, values), r)

    return _walk_chain(ca.group, witness, r_max) or PreInjectivityReport("kernel_free_up_to", r_max)


def surjectivity_check(ca: CellularAutomaton, md: MdimReport, r_max: int) -> str:
    """Surjectivity verdict on the chain's windows [-r, r]^d, r <= r_max, from one rank.

    Rank deficiency persists along the chain: outputs on W read only inputs
    on W*M, so a full-rank plus window on W' containing W also reaches every
    pattern on W, and the last window decides.  Its plus window is that of
    the box [0, s)^d, s = 2*r_max + 1, translated (which keeps the order of
    positions), so mdim's q_s holds its rank when s <= i_max.
    """
    s = 2 * r_max + 1
    q = md.sequence[s - 1] if s <= md.i_max else Fraction(gamma_dim(ca, folner_box(ca.group, s)), s**ca.group.d)
    return "not_surjective" if q < ca.rule.n else "full_rank_up_to"


@dataclass
class LeftInverseReport:
    found: bool
    radius: int = None
    inverse: CellularAutomaton = None
    r_max: int = None


def find_left_inverse(ca: CellularAutomaton, r_max: int) -> LeftInverseReport:
    """Synthesize a left inverse with memory in a ball, if one exists.

    For radius r, looks for a block row vector h with h * W = P where W is
    the plus-mode window matrix on the ball and P projects onto the
    identity block: each row of h holds the coordinates of a row of P in
    the rows of W, and h then reads off the inverse's symbol.  Free
    variables (rows of W in the span of the rows before them) are zero.

    Solvability persists along the chain: an inverse with memory in B(r),
    padded with zeros, solves the system on B(r+1).  A solved h * W = P
    makes the composite exactly the identity, so the composition check
    fails only through a fault in the elimination, and raises.
    """
    rule = _require_linear(ca)
    group, field, n = ca.group, rule.field, rule.n

    def solution(r):
        window = chain_window(group, r)
        wm = window_matrix(ca, "plus", window)
        if group.identity() not in wm.in_domain:
            return None
        echelon = Echelon(coordinates=True)
        for row in wm.matrix_rows:
            echelon.add(row)
        id_base = wm.in_domain.position(group.identity()) * n
        sol = [echelon.solve({id_base + k: field.one()}) for k in range(n)]
        return None if None in sol else (r, window, sol)  # None: projection rows outside the row space

    found = _walk_chain(group, solution, r_max)
    if found is None:
        return LeftInverseReport(False, r_max=r_max)
    r, window, sol = found
    zero = field.zero()
    symbol = {}
    for g in window:
        base = window.position(g) * n
        m = ExactMatrix(field, [[sol[i].get(base + j, zero) for j in range(n)] for i in range(n)])
        if m:
            symbol[g] = m
    inverse = CellularAutomaton(group, LinearRule(n, field, symbol))
    if not group_ring_of(compose(inverse, ca)).is_identity():
        raise CAError("a solved window system at radius %d did not compose to the identity" % r)
    return LeftInverseReport(True, r, inverse, r_max)


@dataclass
class GoeReport:
    classification: str  # "consistent_surjective" | "consistent_not_surjective" | "unresolved"
    alarm: bool
    mdim: MdimReport = None
    preinjectivity: PreInjectivityReport = None
    surjectivity: str = None  # "not_surjective" | "full_rank_up_to"
    notes: list = dc_field(default_factory=list)


def goe_report(ca: CellularAutomaton, i_max: int = 16, r_max: int = 8) -> GoeReport:
    """Garden-of-Eden consistency audit.

    Runs the mean-dimension estimate, the kernel search, and the rank of the
    chain's last window, in that order, then checks the combination: a
    kernel witness must come with a rank-deficient window and an estimate
    below the alphabet dimension; all-positive results are consistent with
    surjectivity.  A witness-backed contradiction raises the alarm flag.
    """
    n = _require_linear(ca).n
    md = mdim_estimate(ca, i_max)
    pre = preinjectivity_check(ca, r_max)
    sur = surjectivity_check(ca, md, r_max)
    notes = []
    negative = pre.verdict == "not_pre_injective"
    rank_deficient = sur == "not_surjective"
    estimate_below = md.estimate < n
    alarm = False
    if negative:
        if rank_deficient and estimate_below:
            classification = "consistent_not_surjective"
        else:
            classification = "theorem_violation"
            alarm = True
            notes.append("kernel witness without matching rank deficiency or mean-dimension drop")
    elif not rank_deficient and not estimate_below:
        classification = "consistent_surjective"
    else:
        classification = "unresolved"
        notes.append("negative evidence without a kernel witness inside the tested windows")
    return GoeReport(classification, alarm, md, pre, sur, notes)
