"""Seeded input generators.  Every function is deterministic in its seed:
the same seed writes byte-identical program files.  Draws are never
filtered by how long bddfc takes on them."""

import random

BINARIES = ["e", "r", "f"]
UNARIES = ["p", "q"]
CONSTS = ["a", "b", "c"]


def random_binary_program(theory_rng, rng):
    """A frontier-one binary theory drawn from ``theory_rng`` the way
    Gen.random_binary_theory draws one (4 single-head rules, bodies of 1-2
    atoms, heads existential, unary or reflexive-binary), then 4 random
    facts and a 1-2 atom query drawn from ``rng``."""
    variables = ["X", "Y", "Z"]

    t = theory_rng

    def atom():
        if t.random() < 0.5:
            return "%s(%s,%s)" % (t.choice(BINARIES), t.choice(variables),
                                  t.choice(variables))
        return "%s(%s)" % (t.choice(UNARIES), t.choice(variables))

    lines = []
    for _ in range(4):
        body = atom()
        if t.random() < 0.5:
            body += ", " + atom()
        present = [v for v in variables if v in body]
        y = present[0] if present else "X"
        k = t.randrange(3)
        if k == 0:
            head = "exists W. %s(%s,W)" % (t.choice(BINARIES), y)
        elif k == 1:
            head = "%s(%s)" % (t.choice(UNARIES), y)
        else:
            head = "%s(%s,%s)" % (t.choice(BINARIES), y, y)
        lines.append("%s -> %s." % (body, head))
    for _ in range(4):
        if rng.random() < 0.5:
            lines.append("%s(%s,%s)." % (rng.choice(BINARIES), rng.choice(CONSTS),
                                         rng.choice(CONSTS)))
        else:
            lines.append("%s(%s)." % (rng.choice(UNARIES), rng.choice(CONSTS)))
    query = []
    for _ in range(rng.choice([1, 2])):
        if rng.random() < 0.6:
            query.append("%s(%s,%s)" % (rng.choice(BINARIES), rng.choice("XY"),
                                        rng.choice("XY")))
        else:
            query.append("%s(%s)" % (rng.choice(UNARIES), rng.choice("XY")))
    lines.append("? %s." % ", ".join(query))
    return "\n".join(lines) + "\n"


# Queries over the two-label Example 9 tree that the chase never satisfies
# (every null gets a single incoming label), so each needs a countermodel.
BRANCHING_QUERIES = [
    "{a}(X,Y), {b}(X,Y)",
    "{b}(X,X)",
    "{a}(X,Y), {b}(Y,X)",
    "{a}(X,Y), {a}(Y,X)",
    "{b}(X,Y), {a}(Y,Z), {b}(Z,X)",
]


def branching_program(rng):
    """Gen.branching_theory ~k:2 (the Example 9 shape) with a seeded start
    fact and a seeded non-certain query."""
    labels = ["t0", "t1"]
    lines = ["%s(_X,Y) -> exists Z. %s(Y,Z)." % (a, b)
             for a in labels for b in labels]
    start = rng.choice(labels)
    lines.append("%s(%s,%s)." % (start, rng.choice(CONSTS[:2]), rng.choice(["c", "d"])))
    a, b = rng.sample(labels, 2)
    lines.append("? %s." % rng.choice(BRANCHING_QUERIES).format(a=a, b=b))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ closures

CLOSURES = {
    "tc": ("e(X,Y) -> t(X,Y).\nt(X,Y), e(Y,Z) -> t(X,Z).\n", "? t(X,X)."),
    "diamond": ("e(X,Y), e(X,Z), e(Y,W), e(Z,W) -> d(X,W).\n"
                "d(X,Y), d(Y,Z) -> d(X,Z).\n", "? d(X,X)."),
    "path4": ("e(X,Y), e(Y,Z), e(Z,W), e(W,V) -> p(X,V).\n"
              "p(X,Y), p(Y,Z) -> p(X,Z).\n", "? p(X,X)."),
    "tri": ("e(X,Y), e(Y,Z), e(X,Z) -> s(X,Z).\n"
            "s(X,Y), s(Y,Z) -> s(X,Z).\n", "? s(X,X)."),
}

# (family, out-degree, window, fewest nodes, most nodes): a fixed size
# ladder of LADDER_STEPS sizes per family, so a pass holds the same work
# on every seed (each program takes roughly 0.05-0.4 s of
# `bddfc model` on a 2-core machine).  The steps are dense so that
# neighbouring programs cost about the same and the median latency does
# not jump between two ladder rungs from run to run.
LADDER_STEPS = 10
CLOSURE_LADDER = [
    (family, k, w, n0 + round((n1 - n0) * i / (LADDER_STEPS - 1)))
    for family, k, w, n0, n1 in [
        ("tc", 3, 20, 80, 155),
        ("diamond", 3, 10, 50, 90),
        ("path4", 3, 8, 50, 90),
        ("tri", 5, 10, 50, 80),
    ]
    for i in range(LADDER_STEPS)
]


def window_dag_edges(rng, nodes, k, w):
    """A random DAG: every node but the last links to k distinct random
    nodes among the next w.  Edges only go forward, so the closures'
    cycle queries are false and `model` must chase every closure to its
    fixpoint and print it as the countermodel."""
    out = []
    for i in range(nodes - 1):
        ahead = range(i + 1, min(nodes, i + 1 + w))
        out.extend((i, j) for j in sorted(rng.sample(ahead, min(k, len(ahead)))))
    return out


def closure_program(graph_rng, rng, family, k, w, nodes):
    """A windowed DAG drawn from ``graph_rng``, its nodes renamed by a
    permutation drawn from ``rng`` and its facts written in an order drawn
    from ``rng``."""
    rules, query = CLOSURES[family]
    names = rng.sample(range(nodes), nodes)
    edges = [(names[a], names[b]) for a, b in window_dag_edges(graph_rng, nodes, k, w)]
    rng.shuffle(edges)
    facts = "".join("e(v%d,v%d).\n" % e for e in edges)
    return rules + facts + query + "\n"


def random_digraph_edges(rng, nodes, edges):
    out = set()
    while len(out) < edges:
        out.add((rng.randrange(nodes), rng.randrange(nodes)))
    return sorted(out)
