"""The library surface: what no subcommand reaches is only what an acceptance criterion needs.

A name walk over the ast of ``src/groupca``, starting from ``cli.py``.
A definition is a module-level function or class, or a method, named
``module.Name`` or ``module.Class.method``.  Reached code is the whole of
``cli.py``, every module's top-level statements other than definitions and
imports, and the body of every reached definition.  A function or class
is reached when its name is read in reached code; a method, when its class
is reached and its name is read in reached code as a name or an attribute,
and always for dunder methods, which Python calls on its own.  The walk
matches names, not bindings, so it over-approximates what runs, never the
reverse: a definition it does not reach no subcommand can call.  The same
walk from ``test_acceptance.py`` reaches every definition kept for an
acceptance criterion.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "groupca"

# unreached from cli.py, and kept because an acceptance criterion calls them
ACCEPTANCE_ONLY = {
    # criterion 2: scalar multiples in R(K,G)
    "near_ring.NearRingElement.scale",
    # criterion 3: the order lemma behind one-sided units of R(K,G) being trivial
    "groups.UndecidableOrderError",
    "groups.LexOrder",
    "groups.MagnusOrder",
    "groups._series_mul",
    "groups._letter_series",
    "groups._magnus_series",
    "near_ring.ExponentVector.convolve",
    "near_ring.MonomialOrder",
    "near_ring.leading_term",
    # criterion 6: the polynomial-rule dictionary and window interiors
    "ca.ca_from_polynomial",
    "groups.FiniteSubset.intersection",
}

# defined once in src/groupca before they were deleted as unreached; none may come back
DELETED = {
    "group_ring.direct_finiteness_scan",
    "group_ring.one_sided_inverse_audit",
    "group_ring.InverseAudit",
    "group_ring.mat_transport",
    "group_ring.transported_product",
    "group_ring.gr_convolve",
    "group_ring.GroupRingElement.scale",
    "ca.minimal_memory_set",
    "ca.MemoryReport",
    "ca.equivariance_check",
    "ca.EquivarianceReport",
    "ca.TableRule.random_value",
    "ca.LinearRule.random_value",
    "ca.PolynomialRule.random_value",
    "ca.polynomial_of",
    "ca.Pattern.translate",
    "groups.word_distance",
    "groups.default_order",
    "near_ring.polynomial_apply",
    "near_ring.exp_convolve",
    "near_ring.NearRingElement.coefficient_sum",
    "near_ring.MonomialOrder.leading_term",
    "near_ring.star",
    "near_ring.shift",
    "rings.scalar_field",
    "rings.matrix_rank_kernel",
    "rings.twisted_multiply",
    "rings.ExactMatrix.zeros",
    "rings.ExactMatrix.transpose",
    "rings.ExactMatrix.rank_kernel",
    "rings.ExactMatrix.rank",
    "rings.ExactMatrix.scale",
    "rings.ExactMatrix.from_ints",
    "sofic.LabeledGraph.edge_count",
    "sofic.LabeledGraph.edges",
    "sofic.graph_to_text",
    "linear_ca.SurjectivityReport",
}


def _is_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


class Library:
    """The definitions of ``src/groupca`` and the code each one holds."""

    def __init__(self, src=SRC):
        self.trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
        self.defs = {}  # qualified name -> node
        self.owner = {}  # method's qualified name -> its class's
        for module, tree in self.trees.items():
            for node in tree.body:
                if not _is_definition(node):
                    continue
                name = "%s.%s" % (module, node.name)
                self.defs[name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if _is_definition(item):
                            self.defs["%s.%s" % (name, item.name)] = item
                            self.owner["%s.%s" % (name, item.name)] = name

    @staticmethod
    def names_read(nodes):
        """Every identifier read as a name or an attribute within ``nodes``."""
        out = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    out.add(sub.attr)
        return out

    def own_code(self, name):
        """The code a definition holds; a class's methods are definitions of their own."""
        node = self.defs[name]
        if isinstance(node, ast.ClassDef):
            body = [item for item in node.body if not _is_definition(item)]
            return node.bases + node.keywords + node.decorator_list + body
        return [node]

    def reached(self, roots=None):
        """Definitions reached from ``roots`` (top-level statements; by default those of cli.py) and every module's top level."""
        code = list(self.trees["cli"].body if roots is None else roots)
        for tree in self.trees.values():
            code += [n for n in tree.body if not _is_definition(n) and not isinstance(n, (ast.Import, ast.ImportFrom))]
        read = self.names_read(code)
        reached = {name for name in self.defs if name.startswith("cli.")} if roots is None else set()
        grew = True
        while grew:
            grew = False
            for name, node in self.defs.items():
                if name in reached:
                    continue
                leaf = node.name
                if name in self.owner:
                    hit = self.owner[name] in reached and (leaf in read or (leaf.startswith("__") and leaf.endswith("__")))
                else:
                    hit = leaf in read
                if hit:
                    reached.add(name)
                    read |= self.names_read(self.own_code(name))
                    grew = True
        return reached

    def unreached(self):
        """Unreached definitions; the methods of an unreached class go with it."""
        out = set(self.defs) - self.reached()
        return {name for name in out if self.owner.get(name) not in out}


def test_unreached_definitions_are_exactly_those_acceptance_needs():
    lib = Library()
    assert lib.unreached() == ACCEPTANCE_ONLY


def test_no_deleted_definition_is_back():
    back = DELETED & set(Library().defs)
    assert not back, "defined again in src/groupca: %s" % sorted(back)


def test_the_acceptance_criteria_reach_what_they_keep():
    acceptance = ast.parse((Path(__file__).resolve().parent / "test_acceptance.py").read_text(encoding="utf-8"))
    assert ACCEPTANCE_ONLY <= Library().reached(acceptance.body)


def test_package_top_level_exports_only_the_version():
    tree = Library().trees["__init__"]
    imported = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imported
    assert {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets} == {"__version__"}
