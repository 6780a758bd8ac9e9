"""Output checks that do not trust the program under test.

A small reader for the surface syntax (rules, facts, queries), a
backtracking conjunctive-query matcher over a set of ground facts, and
the verdict checks built on them.  None
of it calls into bddfc: a countermodel is re-checked from the text the
CLI printed, against the program text the benchmark generated.
"""

import re

_TOKEN = re.compile(r"\s*(->|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[(),.?])")


def is_var(term):
    return term[0] == "_" or term[0].isupper()


def _strip_comments(text):
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _tokens(text):
    text = _strip_comments(text)
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError("unexpected text at %r" % text[pos:pos + 20])
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, toks):
        self.toks, self.i = toks, 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError("expected %r, found %r" % (expect, tok))
        self.i += 1
        return tok

    def atom(self):
        pred = self.take()
        args = []
        if self.peek() == "(":
            self.take("(")
            if self.peek() != ")":
                args.append(self.take())
                while self.peek() == ",":
                    self.take(",")
                    args.append(self.take())
            self.take(")")
        return (pred, tuple(args))

    def atoms(self):
        out = [self.atom()]
        while self.peek() == ",":
            self.take(",")
            out.append(self.atom())
        return out


def parse_program(text):
    """{'rules': [(body, head, exist_vars)], 'facts': [atom], 'queries': [[atom]]}"""
    r = _Reader(_tokens(text))
    rules, facts, queries = [], [], []
    while r.peek() is not None:
        if r.peek() == "?":
            r.take("?")
            queries.append(r.atoms())
            r.take(".")
            continue
        body = r.atoms()
        if r.peek() == "->":
            r.take("->")
            exist = []
            if r.peek() == "exists":
                r.take("exists")
                exist.append(r.take())
                while r.peek() == ",":
                    r.take(",")
                    exist.append(r.take())
                r.take(".")
            head = r.atoms()
            r.take(".")
            rules.append((body, head, frozenset(exist)))
        else:
            r.take(".")
            facts.extend(body)
    return {"rules": rules, "facts": facts, "queries": queries}


def parse_facts(lines):
    """Ground facts printed one per line, e.g. ``e(a,_n3)``."""
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        r = _Reader(_tokens(line))
        out.append(r.atom())
        if r.peek() is not None:
            raise ValueError("trailing text in fact line %r" % line)
    return out


class Facts:
    """A set of ground atoms with a per-(predicate, position, value) index."""

    def __init__(self, atoms=()):
        self.by_pred = {}
        self.index = {}
        for a in atoms:
            self.add(a)

    def __contains__(self, a):
        return a[1] in self.by_pred.get(a[0], ())

    def add(self, a):
        pred, args = a
        s = self.by_pred.setdefault(pred, set())
        if args in s:
            return False
        s.add(args)
        for i, v in enumerate(args):
            self.index.setdefault((pred, i, v), []).append(args)
        return True

    def candidates(self, atom, env):
        pred, args = atom
        best = None
        for i, t in enumerate(args):
            v = env.get(t, None) if is_var(t) else t
            if v is not None:
                c = self.index.get((pred, i, v), ())
                if best is None or len(c) < len(best):
                    best = c
        if best is None:
            best = self.by_pred.get(pred, ())
        return best


def _plan(atoms, bound):
    """Order atoms so each one shares as many variables as possible with
    the atoms before it (a static left-deep join order)."""
    bound, rest, order = set(bound), list(atoms), []
    while rest:
        def score(a):
            args = a[1]
            return (sum(1 for t in args if not is_var(t) or t in bound), -len(args))
        best = max(rest, key=score)
        rest.remove(best)
        order.append((best[0], best[1], tuple(is_var(t) for t in best[1])))
        bound.update(t for t in best[1] if is_var(t))
    return order


def _walk(facts, order, i, env):
    if i == len(order):
        yield env
        return
    pred, args, var = order[i]
    arity = len(args)
    for tup in list(facts.candidates((pred, args), env)):
        if len(tup) != arity:
            continue
        fresh, ok = [], True
        for t, is_v, v in zip(args, var, tup):
            if is_v:
                cur = env.get(t)
                if cur is None:
                    env[t] = v
                    fresh.append(t)
                elif cur != v:
                    ok = False
                    break
            elif t != v:
                ok = False
                break
        if ok:
            yield from _walk(facts, order, i + 1, env)
        for t in fresh:
            del env[t]


def matches(facts, atoms, env=None):
    """Every extension of ``env`` mapping all ``atoms`` into ``facts``.  The
    yielded dict is reused between solutions: copy it to keep one."""
    env = dict(env or {})
    return _walk(facts, _plan(atoms, env), 0, env)


def holds(facts, atoms, env=None):
    return next(matches(facts, atoms, env), None) is not None


def model_problems(program, model_atoms, query):
    """Why ``model_atoms`` is not a model of the program avoiding ``query``
    (an empty list when it is one)."""
    model = Facts(model_atoms)
    problems = []
    for f in program["facts"]:
        if f not in model:
            problems.append("database fact %s%s missing" % f)
    for n, (body, head, exist) in enumerate(program["rules"]):
        ground_head = not exist
        for env in matches(model, body):
            if ground_head:
                ok = all((p, tuple(env.get(t, t) for t in args)) in model
                         for p, args in head)
            else:
                frontier = {k: v for k, v in env.items() if k not in exist}
                ok = holds(model, head, frontier)
            if not ok:
                problems.append("rule %d violated at %s" % (n, sorted(env.items())))
                break
    if holds(model, query):
        problems.append("query holds in the model")
    return problems


# ------------------------------------------------------------- CLI outputs

def judge_output(stdout):
    """(verdict, detail) from ``bddfc judge`` stdout: verdict is one of
    certain / countermodel / no_small_model / open; detail is the chase
    depth or the list of model fact lines."""
    lines = stdout.splitlines()
    if not lines:
        return ("empty", None)
    first = lines[0]
    m = re.match(r"the query is certain \(chase depth (\d+)\)$", first)
    if m:
        return ("certain", int(m.group(1)))
    if first.startswith("verified finite countermodel with "):
        try:
            k = lines.index("model:")
        except ValueError:
            return ("malformed", None)
        return ("countermodel", lines[k + 1:])
    if first.startswith("no countermodel with <="):
        return ("no_small_model", None)
    if first.startswith("inconclusive:"):
        return ("open", None)
    return ("malformed", None)


def model_output(stdout):
    """(verdict, detail) from ``bddfc model`` stdout."""
    lines = stdout.splitlines()
    if not lines:
        return ("empty", None)
    first = lines[0]
    m = re.match(r"the query is certain \(chase depth (\d+)\): ", first)
    if m:
        return ("certain", int(m.group(1)))
    if first.startswith("finite countermodel found"):
        if lines[-1] != "-- verified: true":
            return ("unverified", None)
        return ("countermodel", lines[1:-1])
    if first.startswith("unknown:"):
        return ("open", None)
    return ("malformed", None)


def chase_instance(stdout):
    """Fact lines of ``bddfc chase`` stdout (everything before ``-- ``)."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("-- "):
            break
        out.append(line)
    return out


def check_countermodel(program, fact_lines):
    """None when the printed model is a model of the program that avoids
    its query; otherwise the first problem found."""
    try:
        atoms = parse_facts(fact_lines)
    except ValueError as e:
        return "unparseable model: %s" % e
    problems = model_problems(program, atoms, program["queries"][0])
    return problems[0] if problems else None
