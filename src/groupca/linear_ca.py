"""Rank-based analysis of linear cellular automata.

Window restrictions of a linear automaton are exact block matrices; their
ranks and kernels drive everything here: the algebraic mean dimension
along boxes (exact rationals, never floats), pre-injectivity via
finite-support kernels, surjectivity via full-rank windows, left-inverse
synthesis by solving a linear system per radius, and a consistency report
tying the three verdicts together.

All verdicts are window-bounded semi-decisions: a negative verdict carries
a finite witness, a positive one only certifies the windows actually
checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .ca import CAError, CellularAutomaton, LinearRule, Pattern, compose, group_ring_of
from .groups import FiniteSubset, ZdGroup, ball, box_window, folner_box, subset_calculus
from .rings import ExactMatrix, rank_kernel_sparse


def _require_linear(ca: CellularAutomaton):
    if ca.rule.variant != "linear":
        raise CAError("rank analysis needs a linear rule")
    return ca.rule


def chain_window(group, r: int) -> FiniteSubset:
    """Window chain for checks: boxes [-r, r]^d on Z^d, balls elsewhere."""
    if isinstance(group, ZdGroup):
        return box_window(group, r)
    return ball(group, r)


@dataclass
class WindowMatrix:
    matrix_rows: list  # sparse rows, dict col -> scalar
    nrows: int
    ncols: int
    in_domain: FiniteSubset
    out_domain: FiniteSubset
    n: int
    field: object

    def to_exact(self) -> ExactMatrix:
        z = self.field.zero()
        rows = []
        for r in self.matrix_rows:
            row = [z] * self.ncols
            for j, v in r.items():
                row[j] = v
            rows.append(row)
        return ExactMatrix(self.field, rows)


def block_rows(blocks, n: int) -> list:
    """The n sparse rows of one output point; each pair (bc, m) in ``blocks``, in
    order, puts the n x n matrix m in the columns bc*n .. bc*n + n-1."""
    rows = []
    for i in range(n):
        row = {}
        for bc, m in blocks:
            for j, v in enumerate(m.rows[i]):
                if v:
                    row[bc * n + j] = v
        rows.append(row)
    return rows


def window_matrix(ca: CellularAutomaton, mode: str, window: FiniteSubset) -> WindowMatrix:
    """Block matrix of a window restriction.

    mode "plus": inputs on window*M, outputs on the window.
    mode "minus": inputs on the window, outputs on its M-interior.
    mode "supported": inputs are configurations supported in the window
    (zero background); outputs on window*(M u M^-1), which contains the
    full support of any image of such a configuration.
    """
    rule = _require_linear(ca)
    group = ca.group
    memory = ca.memory_set()
    if mode == "plus":
        in_domain = window.product(memory) if len(memory) else FiniteSubset(group, [])
        out_domain = window
    elif mode == "minus":
        in_domain = window
        if len(memory) == 0:
            raise CAError("minus window undefined for an empty memory set")
        out_domain, _, _ = subset_calculus(window, memory)
    elif mode == "supported":
        in_domain = window
        sym = memory.union(memory.inverses())
        out_domain = window.product(sym) if len(memory) else FiniteSubset(group, [])
    else:
        raise CAError("unknown window mode %r" % mode)
    n = rule.n
    rows = []
    for g_out in out_domain:
        block_cols = {}
        for h, m in rule.symbol.items():
            g_in = g_out * h
            if g_in in in_domain:
                block_cols[in_domain.position(g_in)] = m
        rows += block_rows(block_cols.items(), n)
    return WindowMatrix(
        matrix_rows=rows,
        nrows=n * len(out_domain),
        ncols=n * len(in_domain),
        in_domain=in_domain,
        out_domain=out_domain,
        n=n,
        field=rule.field,
    )


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
    rule = _require_linear(ca)
    group = ca.group
    if not isinstance(group, ZdGroup):
        raise CAError("mean dimension estimates need Z^d")
    if i_max < 1:
        raise CAError("i_max must be >= 1")
    seq = []
    for i in range(1, i_max + 1):
        box = folner_box(group, i)
        seq.append(Fraction(gamma_dim(ca, box), len(box)))
    tail = seq[i_max // 2 :]
    return MdimReport(sequence=seq, estimate=max(tail), i_max=i_max)


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
    """
    rule = _require_linear(ca)
    group = ca.group
    n = rule.n
    for r in range(r_max + 1):
        window = chain_window(group, r)
        wm = window_matrix(ca, "supported", window)
        _, kernel = rank_kernel_sparse(wm.field, wm.matrix_rows, wm.ncols, want_kernel=True)
        if kernel:
            vec = kernel[0]
            values = {}
            for g in window:
                base = window.position(g) * n
                values[g] = tuple(vec[base + j] for j in range(n))
            witness = Pattern(window, values)
            return PreInjectivityReport("not_pre_injective", r_max, witness, r)
    return PreInjectivityReport("kernel_free_up_to", r_max)


@dataclass
class SurjectivityReport:
    verdict: str  # "not_surjective" | "full_rank_up_to"
    r_max: int
    window: FiniteSubset = None
    rank: int = None
    full: int = None


def surjectivity_check(ca: CellularAutomaton, r_max: int = 8) -> SurjectivityReport:
    """Full-rank test of every window restriction along the window chain."""
    rule = _require_linear(ca)
    group = ca.group
    for r in range(r_max + 1):
        window = chain_window(group, r)
        rank = gamma_dim(ca, window)
        full = rule.n * len(window)
        if rank < full:
            return SurjectivityReport("not_surjective", r_max, window, rank, full)
    return SurjectivityReport("full_rank_up_to", r_max)


@dataclass
class LeftInverseReport:
    found: bool
    radius: int = None
    inverse: CellularAutomaton = None
    r_max: int = None


def find_left_inverse(ca: CellularAutomaton, r_max: int) -> LeftInverseReport:
    """Synthesize a left inverse with memory in a ball, if one exists.

    For each radius r, looks for a block row vector h with h * W = P where
    W is the plus-mode window matrix on the ball and P projects onto the
    identity block; h then reads off the inverse's symbol.  Free variables
    are set to zero, and the result is verified by composing back to the
    identity symbol.
    """
    rule = _require_linear(ca)
    group = ca.group
    n = rule.n
    for r in range(r_max + 1):
        window = chain_window(group, r)
        wm = window_matrix(ca, "plus", window)
        if group.identity() not in wm.in_domain:
            continue
        # transpose the system: W^T h^T = P^T, one RHS column per output row
        aug = [dict() for _ in range(wm.ncols)]
        for i, row in enumerate(wm.matrix_rows):
            for j, v in row.items():
                aug[j][i] = v
        id_base = wm.in_domain.position(group.identity()) * n
        ncols = wm.nrows
        for k in range(n):
            # RHS column k: 1 at row id_base+k
            aug[id_base + k][ncols + k] = wm.field.one()
        rank_kernel_sparse(wm.field, aug, ncols)
        leads = [(min(row), row) for row in aug if row]
        if any(col >= ncols for col, _ in leads):
            continue  # projection rows outside the row space
        zero = wm.field.zero()
        sol = [[zero] * (n * len(window)) for _ in range(n)]
        for col, row in leads:
            for k in range(n):
                v = row.get(ncols + k)
                if v:
                    sol[k][col] = v
        symbol = {}
        for g in window:
            base = window.position(g) * n
            m = ExactMatrix(wm.field, [[sol[i][base + j] for j in range(n)] for i in range(n)])
            if m:
                symbol[g] = m
        inverse = CellularAutomaton(group, LinearRule(n, wm.field, symbol))
        check = group_ring_of(compose(inverse, ca))
        if not check.is_identity():
            continue
        return LeftInverseReport(True, r, inverse, r_max)
    return LeftInverseReport(False, r_max=r_max)


@dataclass
class GoeReport:
    classification: str  # "consistent_surjective" | "consistent_not_surjective" | "unresolved"
    alarm: bool
    mdim: MdimReport = None
    preinjectivity: PreInjectivityReport = None
    surjectivity: SurjectivityReport = None
    notes: list = dc_field(default_factory=list)


def goe_report(ca: CellularAutomaton, i_max: int = 16, r_max: int = 8) -> GoeReport:
    """Garden-of-Eden consistency audit.

    Runs the mean-dimension estimate, the kernel search, and the full-rank
    windows, then checks the combination: a kernel witness must come with a
    rank-deficient window and an estimate below the alphabet dimension;
    all-positive results are consistent with surjectivity.  A witness-backed
    contradiction raises the alarm flag.
    """
    rule = _require_linear(ca)
    n = rule.n
    md = mdim_estimate(ca, i_max)
    pre = preinjectivity_check(ca, r_max)
    sur = surjectivity_check(ca, r_max)
    notes = []
    negative = pre.verdict == "not_pre_injective"
    rank_deficient = sur.verdict == "not_surjective"
    estimate_below = md.estimate < n
    alarm = False
    if negative:
        if rank_deficient and estimate_below:
            classification = "consistent_not_surjective"
        else:
            classification = "theorem_violation"
            alarm = True
            notes.append(
                "kernel witness without matching rank deficiency or mean-dimension drop"
            )
    elif not rank_deficient and not estimate_below:
        classification = "consistent_surjective"
    else:
        classification = "unresolved"
        notes.append("negative evidence without a kernel witness inside the tested windows")
    return GoeReport(classification, alarm, md, pre, sur, notes)
