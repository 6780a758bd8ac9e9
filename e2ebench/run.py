#!/usr/bin/env python3
"""End-to-end benchmark for bddfc.

    python3 e2ebench/run.py --workload judge-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The script builds `bddfc` and
the in-process tracer with dune into .bench_build/, writes the seeded
inputs under .bench_build/e2e/<workload>/, drives the real binary the way
a user does (cold `judge` / `model` processes, one warm `serve --socket`
child), checks every output without trusting the program, and prints one
JSON object as the last line of stdout.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the traced in-process pass instead and reports the
per-layer metrics.  Workloads, metrics and their definitions are in
e2ebench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import selectors  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("judge-mix", "model-closure", "serve-mixed")

JUDGE_TIMEOUT_S = 1.0  # the T of `bddfc judge --timeout T`
JUDGE_HARD_S = 10.0  # a judge child still running here is killed (failed)
MODEL_HARD_S = 60.0
SERVE_REPLY_HARD_S = 30.0
SETUP_REPS = 7  # setup_s is the median of this many set-ups
N_RANDOM = 200  # random binary programs per judge-mix pass
THEORY_SEED = 1000  # the random theories are fixed; see judge-mix in README.md
# The model-closure graphs and the serve starting graphs are fixed too; the
# seed renames and orders (model-closure) or draws the stream (serve).
# Per-seed graphs moved the model p50 by up to 20% and the serve read p99
# by up to 60% between seeds (README.md).
GRAPH_SEED = 1000
N_BRANCHING = 2  # Example-9 branching programs per judge-mix pass
STARTUP_REPS = 15  # `bddfc --version` runs behind cli.startup_ms
SERVE_CHECK_VERSIONS = 150  # db versions per session re-derived by the oracle
GLUE_EPSILON = 0.05  # staged layers must cover the root span to this share
TAIL_MIN = 10  # tail_ms averages at least this many items
PROBE_ROUNDS = 2  # e2eprobe work per call, about 30 ms
PROBE_EVERY_S = 0.5  # a probe runs between operations at least this often
PROBE_REF_MS = 30.0  # probe CPU time that defines the reference host speed

# Paper expectations of the zoo entries (lib/workload/zoo.ml).
ZOO_EXPECT = {
    "ex1": "countermodel", "ex7": "countermodel", "ex9": "countermodel",
    "remark3": "certain", "sec55": "not_fc", "linear": "countermodel",
    "sticky": "countermodel", "weakly_acyclic": "countermodel",
    "guarded_ternary": "countermodel", "sec54": "countermodel",
}

EXIT_OF = {"countermodel": 0, "certain": 3, "no_small_model": 4, "open": 4}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pct(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def largest_mean(xs, share):
    """Mean of the largest ``share`` of the samples, and of at least
    TAIL_MIN of them.  Unlike a high percentile it does not jump when the
    percentile falls in a sparse stretch of the distribution (README.md,
    tail_ms)."""
    if not xs:
        return 0.0
    s = sorted(xs, reverse=True)
    tail = s[:max(TAIL_MIN, math.ceil(share * len(s)))]
    return sum(tail) / len(tail)


class Env:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.work = os.path.join(ROOT, ".bench_build", "e2e", args.workload)
        self.bddfc = None
        self.tracer = None
        self.probe = None
        self.nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()


# ------------------------------------------------------------------ build

def build(env):
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit("e2ebench: %s missing: run from a bddfc source checkout" % need)
    bdir = os.path.join(ROOT, ".bench_build", "dune")
    os.makedirs(os.path.dirname(bdir), exist_ok=True)
    targets = ["./bin/bddfc_cli.exe", "./e2ebench/tracer/e2etrace.exe",
               "./e2ebench/probe/e2eprobe.exe"]
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--profile", "release",
         "--build-dir", bdir] + targets,
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        raise SystemExit("e2ebench: build failed")
    env.bddfc = os.path.join(bdir, "default", "bin", "bddfc_cli.exe")
    env.tracer = os.path.join(bdir, "default", "e2ebench", "tracer", "e2etrace.exe")
    env.probe = os.path.join(bdir, "default", "e2ebench", "probe", "e2eprobe.exe")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def run_child(args, hard_s):
    """(wall seconds, exit code or None when killed, stdout, stderr, peak
    RSS in MB, CPU seconds).  The child is reaped with wait4 so its own
    peak RSS and CPU time (user + system) are known; a child still
    running after hard_s seconds is killed."""
    t0 = now()
    p = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    chunks = {p.stdout: [], p.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = hard_s - (now() - t0)
            if left <= 0:
                p.kill()
                killed = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(p.pid, 0)
    wall = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    out = b"".join(chunks[p.stdout]).decode()
    err = b"".join(chunks[p.stderr]).decode()
    rss, cpu = usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime
    if killed:
        return wall, None, out, "killed at the hard wall limit", rss, cpu
    return wall, p.returncode, out, err, rss, cpu


class Probe:
    """The host-speed probe.  Other tenants of a shared host slow its cores
    down by 20-30% for seconds to minutes at a time, and every CPU time
    measured then with them.  e2eprobe is a fixed workload built from
    e2ebench/ alone; it runs between the measured operations, and the
    run's times are scaled by PROBE_REF_MS over its median CPU time
    (README.md, Steadiness and bounds)."""

    def __init__(self, env):
        self.exe, self.ms, self.last = env.probe, [], None

    def between(self):
        """Run the probe if PROBE_EVERY_S have passed since the last one."""
        if self.last is None or now() - self.last >= PROBE_EVERY_S:
            _, rc, _, err, _, cpu = run_child([self.exe, str(PROBE_ROUNDS)], 30)
            if rc != 0:
                raise SystemExit("e2ebench: e2eprobe failed: %s" % err)
            self.ms.append(cpu * 1000)
            self.last = now()

    def scale(self):
        """Measured time times this is time at the reference speed."""
        f = PROBE_REF_MS / median(self.ms)
        log("e2ebench: %d probes, median %.2f ms: times scaled by %.4f"
            % (len(self.ms), median(self.ms), f))
        return f


class Program:
    def __init__(self, name, path, text, expect=None):
        self.name, self.path, self.text, self.expect = name, path, text, expect
        self.parsed = check.parse_program(text)


def write_program(directory, name, text, expect=None):
    path = os.path.join(directory, name + ".dlg")
    with open(path, "w") as f:
        f.write(text)
    return Program(name, path, text, expect)


def timed_setups(fn):
    """Run a set-up SETUP_REPS times; keep the last result, report the median."""
    times, result = [], None
    for rep in range(SETUP_REPS):
        t0 = now()
        result = fn(rep == SETUP_REPS - 1)
        times.append(now() - t0)
    return result, median(times)


# ------------------------------------------------------------- judge-mix

def setup_judge(env, _last):
    d = os.path.join(env.work, "inputs")
    fresh_dir(d)
    rng = random.Random(env.seed)
    progs = [write_program(d, "random%03d" % i,
                           gen.random_binary_program(random.Random(THEORY_SEED + i), rng))
             for i in range(N_RANDOM)]
    progs += [write_program(d, "branching%d" % i, gen.branching_program(rng), "countermodel")
              for i in range(N_BRANCHING)]
    _, rc, out, err, _, _ = run_child([env.bddfc, "zoo"], 30)
    if rc != 0:
        raise SystemExit("e2ebench: bddfc zoo failed: %s" % err)
    for line in out.splitlines():
        name = line.split()[0]
        _, rc, dump, err, _, _ = run_child([env.bddfc, "zoo", name, "--dump"], 30)
        if rc != 0:
            raise SystemExit("e2ebench: bddfc zoo %s --dump failed: %s" % (name, err))
        progs.append(write_program(d, "zoo-" + name, dump, ZOO_EXPECT.get(name)))
    exdir = os.path.join(ROOT, "examples", "programs")
    for f in sorted(os.listdir(exdir)):
        if f.endswith(".dlg"):
            with open(os.path.join(exdir, f)) as fh:
                progs.append(write_program(d, "example-" + f[:-4], fh.read()))
    return progs


class Verifier:
    """Classifies CLI outputs; caches by (program, stdout) so repeated
    passes re-use a check of identical output."""

    def __init__(self, env, mode):
        self.env, self.mode, self.cache, self.chase_cache = env, mode, {}, {}

    def certain_confirmed(self, prog, depth):
        if prog.expect is not None:
            return prog.expect == "certain"
        key = (prog.path, depth)
        if key not in self.chase_cache:
            rounds = 2 * depth + 2
            _, rc, out, _, _, _ = run_child(
                [self.env.bddfc, "chase", prog.path, "--rounds", str(rounds)], 60)
            ok = False
            if rc in (0, 4):
                facts = check.Facts(check.parse_facts(check.chase_instance(out)))
                ok = check.holds(facts, prog.parsed["queries"][0])
            self.chase_cache[key] = ok
        return self.chase_cache[key]

    def classify(self, prog, rc, out):
        """'decided', 'undecided' or 'failed: <why>'."""
        key = (prog.path, rc, out)
        if key not in self.cache:
            self.cache[key] = self._classify(prog, rc, out)
        return self.cache[key]

    def _classify(self, prog, rc, out):
        if rc is None:
            return "failed: killed at the hard wall limit"
        parse = check.judge_output if self.mode == "judge" else check.model_output
        verdict, detail = parse(out)
        if verdict not in EXIT_OF:
            return "failed: %s output (exit %s)" % (verdict, rc)
        if EXIT_OF[verdict] != rc:
            return "failed: verdict %s with exit %s" % (verdict, rc)
        if verdict == "countermodel":
            if prog.expect in ("certain", "not_fc"):
                return "failed: countermodel where the paper expects %s" % prog.expect
            problem = check.check_countermodel(prog.parsed, detail)
            return "failed: " + problem if problem else "decided"
        if verdict == "certain":
            if self.certain_confirmed(prog, detail):
                return "decided"
            return "failed: certain verdict not confirmed"
        return "undecided"


def self_test(verifier, samples):
    """A corrupted output must be counted as failed: a countermodel missing
    a database fact, and a certain verdict claimed where the program has a
    verified countermodel."""
    for prog, rc, out in samples:
        if rc != 0 or verifier.classify(prog, rc, out) != "decided":
            continue
        if not prog.parsed["facts"]:
            continue
        pred, args = prog.parsed["facts"][0]
        fact = "%s(%s)" % (pred, ",".join(args))
        broken = "\n".join(l for l in out.splitlines() if l.strip() != fact) + "\n"
        if not verifier._classify(prog, rc, broken).startswith("failed"):
            return False
        lie = "the query is certain (chase depth 0)" + (
            "" if verifier.mode == "judge" else ": no countermodel exists") + "\n"
        p2 = Program(prog.name, prog.path, prog.text, None)
        return verifier._classify(p2, 3, lie).startswith("failed")
    return False


def closed_loop_passes(env, progs, cmd_of, hard_s, seconds, probe):
    """Whole seeded passes over the program set, cold process per program,
    until `seconds` have elapsed.  Returns (samples, wall seconds); a
    sample is (program, CPU seconds, exit code, stdout, peak RSS MB)."""
    samples, t0, k = [], now(), 0
    while True:
        order = list(progs)
        random.Random(env.seed * 1009 + k).shuffle(order)
        for prog in order:
            probe.between()
            _, rc, out, _, rss, cpu = run_child(cmd_of(prog), hard_s)
            samples.append((prog, cpu, rc, out, rss))
        k += 1
        if now() - t0 >= seconds:
            return samples, now() - t0


def judge_cmd(env):
    return lambda p: [env.bddfc, "judge", p.path, "--timeout", "%g" % JUDGE_TIMEOUT_S]


def model_cmd(env):
    return lambda p: [env.bddfc, "model", p.path]


def classify_all(verifier, samples):
    outcomes = [verifier.classify(p, rc, out) for p, _, rc, out, _ in samples]
    failures = {}
    for (p, _, _, _, _), o in zip(samples, outcomes):
        if o.startswith("failed"):
            failures.setdefault(p.name, o)
    for name, why in sorted(failures.items())[:10]:
        log("e2ebench: FAILED %s: %s" % (name, why))
    return outcomes


def measure_programs(env, mode):
    if mode == "judge":
        progs, setup_s = timed_setups(lambda last: setup_judge(env, last))
        cmd, hard = judge_cmd(env), JUDGE_HARD_S
    else:
        progs, setup_s = timed_setups(lambda last: setup_model(env, last))
        cmd, hard = model_cmd(env), MODEL_HARD_S
    probe = Probe(env)
    samples, wall = closed_loop_passes(env, progs, cmd, hard, env.args.seconds, probe)
    verifier = Verifier(env, mode)
    outcomes = classify_all(verifier, samples)
    selftest_ok = self_test(verifier, [(p, rc, out) for p, _, rc, out, _ in samples])
    n = len(samples)
    failed = sum(1 for o in outcomes if o.startswith("failed"))
    decided = sum(1 for o in outcomes if o == "decided")
    log("e2ebench: %d samples over %d programs (%d passes) in %.2f s; %d decided, %d failed; "
        "self-test %s" % (n, len(progs), n // len(progs), wall, decided, failed,
                          "ok" if selftest_ok else "FAILED"))
    # A program's peak RSS differs by a page-allocation step or two from
    # one execution to the next, so take each program's median first: the
    # plain maximum grew with the number of passes.  The largest tenth of
    # those are averaged like tail_ms: the single largest belongs to a
    # program stopped by the deadline, which grows for as long as the
    # deadline lets it, and so with the host's speed.
    rss = {}
    for prog, _, _, _, mb in samples:
        rss.setdefault(prog.name, []).append(mb)
    f = probe.scale()
    cpu_ms = [s[1] * 1000 * f for s in samples]
    peak_mb = largest_mean([median(v) for v in rss.values()], 0.10)
    metrics = end_to_end(setup_s, cpu_ms, largest_mean(cpu_ms, 0.10), 1000 * n / sum(cpu_ms),
                         failed / n, decided / n, peak_mb)
    return selftest_ok, n, failed, metrics


# --------------------------------------------------------- model-closure

def setup_model(env, _last):
    d = os.path.join(env.work, "inputs")
    fresh_dir(d)
    progs = []
    rng = random.Random(env.seed)
    for i, (family, k, w, nodes) in enumerate(gen.CLOSURE_LADDER):
        graph_rng = random.Random(GRAPH_SEED * 7919 + i)
        progs.append(write_program(d, "%s-%d" % (family, nodes),
                                   gen.closure_program(graph_rng, rng, family, k, w, nodes)))
    return progs


# ---------------------------------------------------------- serve-mixed

def reachable(pairs):
    """Pairs (x, z) joined by a path of one or more steps through ``pairs``."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    out = set()
    for x in succ:
        seen, todo = set(), list(succ[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(succ.get(y, ()))
        out.update((x, y) for y in seen)
    return out


def two_steps(pairs):
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    return {(a, c) for a, b in pairs for c in succ.get(b, ())}


SERVE_SESSIONS = [
    # name, rules, derived predicate, nodes, edges, the derived relation
    # computed the graph way (the oracle); sizes keep each closure in the
    # low thousands of facts on every seed.  In the diamond rule Y = Z is
    # allowed, so its body holds exactly on the pairs joined by a 2-path.
    ("tc", "e(X,Y) -> t(X,Y).\nt(X,Y), e(Y,Z) -> t(X,Z).\n", "t", 40, 160,
     reachable),
    ("diamond", "e(X,Y), e(X,Z), e(Y,W), e(Z,W) -> d(X,W).\n"
                "d(X,Y), d(Y,Z) -> d(X,Z).\n", "d", 40, 120,
     lambda e: reachable(two_steps(e))),
]
QUERY_ROUNDS = 100  # deep enough that every resident prefix is a fixpoint
# judge and cert go to tc only: on the diamond theory judge spends about a
# second in kappa over the 4-atom bodies, enough for the few verdict
# requests to swamp the rest of the stream.
VERDICT_SESSION = "tc"
BLOCK = 20  # requests per seeded block: 2 writes, 1 judge/cert, 17 queries
CYCLE_BLOCKS = 160  # blocks per cycle; the cycle is replayed until time is up


def query_shapes(p):
    """CQ templates; all but the first have a variable, which the finite
    model pipeline needs (a ground query is answered open)."""
    return ["? {p}({a},{b}).", "? {p}({a},X), e(X,{b}).", "? {p}(X,X), e(X,{a}).",
            "? {p}({a},X), {p}(X,{a}).", "? e({a},X), {p}(X,Y), e(Y,{b})."]


def batches(rng, edges, n):
    """The edges in seeded order, cut into n batches of 1-3 edges each."""
    assert n <= len(edges) <= 3 * n
    sizes = [1] * n
    for i in rng.sample([i for i in range(n) for _ in range(2)], len(edges) - n):
        sizes[i] += 1
    order = rng.sample(edges, len(edges))
    out, at = [], 0
    for size in sizes:
        out.append(order[at:at + size])
        at += size
    return out


class Stream:
    """The seeded serve request stream: a cycle of CYCLE_BLOCKS blocks,
    replayed over and over.  Over a cycle each session retracts every one
    of its starting edges once, in seeded batches of 1-3 (even blocks),
    and the next block asserts the same batch back.  So every session's
    database is its starting graph again at the start of each even block
    and of each replay, every replay of a cycle position does the same
    work, and every seed's cycle holds the same writes in another order
    and grouping."""

    def __init__(self, seed):
        rng = random.Random(seed * 31 + 7)
        self.sessions = {}
        self.initial = {}
        self.loads = []
        for name, rules, pred, nodes, edges, _ in SERVE_SESSIONS:
            erng = random.Random("%d-%s" % (GRAPH_SEED, name))
            db = set(gen.random_digraph_edges(erng, nodes, edges))
            self.initial[name] = frozenset(db)
            rqr = random.Random("%d-%s-q" % (seed, name))
            shapes = query_shapes(pred)

            def mk(r, shape=None, shapes=shapes, nodes=nodes, pred=pred):
                return (shape or r.choice(shapes)).format(
                    p=pred, a="v%d" % r.randrange(nodes), b="v%d" % r.randrange(nodes))
            self.sessions[name] = {
                "db": db, "version": 0,
                "pool": [mk(rqr) for _ in range(8)],
                "batches": batches(rng, sorted(db), CYCLE_BLOCKS // 2),
                "shapes": shapes,
                "mk": mk,
            }
            program = rules + "".join("e(v%d,v%d).\n" % e for e in sorted(db))
            self.loads.append({"op": "load", "session": name, "program": program})
        self.names = [s[0] for s in SERVE_SESSIONS]
        # The judge and cert queries are a fixed corpus, each shape with a
        # variable equally often; the seed only orders them, so the
        # verdict costs, which make tail_ms, are the same on every seed.
        s = self.sessions[VERDICT_SESSION]
        self.verdicts = {}
        for op in ("judge", "cert"):
            vrng = random.Random("%d-%s" % (GRAPH_SEED, op))
            order = [s["mk"](vrng, s["shapes"][1 + i % (len(s["shapes"]) - 1)])
                     for i in range(CYCLE_BLOCKS // 2)]
            rng.shuffle(order)
            self.verdicts[op] = order
        self.cycle = []
        for k in range(CYCLE_BLOCKS):
            self.cycle.extend(self._block(rng, k))
        self.n = 0

    def _block(self, rng, k):
        """BLOCK requests in seeded order: one write per session, one judge
        (odd blocks) or cert (even blocks) on VERDICT_SESSION, and queries,
        half from a repeated pool of 8 per session and half fresh."""
        ops = []
        for name in self.names:
            batch = self.sessions[name]["batches"][k // 2]
            ops.append(("write", name, {"op": "assert" if k % 2 else "retract",
                                        "edges": batch}))
        op = "judge" if k % 2 else "cert"
        ops.append(("read", VERDICT_SESSION, {"op": op, "query": self.verdicts[op][k // 2]}))
        while len(ops) < BLOCK:
            name = rng.choice(self.names)
            s = self.sessions[name]
            q = rng.choice(s["pool"]) if rng.random() < 0.5 else s["mk"](rng)
            ops.append(("read", name, {"op": "query", "query": q, "rounds": QUERY_ROUNDS}))
        rng.shuffle(ops)
        return ops

    def next(self):
        """(request dict, kind, expectation) where expectation is what the
        client can already tell about the reply (writes) or the session
        version the reply must be checked against (reads)."""
        kind, name, spec = self.cycle[self.n % len(self.cycle)]
        self.n += 1
        s = self.sessions[name]
        if kind == "read":
            return dict(spec, session=name), kind, (name, s["version"])
        edges, op = spec["edges"], spec["op"]
        if op == "retract":
            changed = set(edges) & s["db"]
            s["db"] -= changed
        else:
            changed = set(edges) - s["db"]
            s["db"] |= changed
        s["version"] += 1
        req = {"op": op, "session": name, "facts": " ".join("e(v%d,v%d)." % e for e in edges)}
        exp = {"count": len(changed), "db_facts": len(s["db"]),
               "key": "retracted" if op == "retract" else "inserted",
               "version": (name, s["version"]), "db": frozenset(s["db"])}
        return req, kind, exp


class Client:
    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode()

    def close(self):
        self.sock.close()


class Server:
    def __init__(self, env):
        self.sock_path = os.path.relpath(os.path.join(env.work, "serve.sock"))
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.log = open(os.path.join(env.work, "serve.stderr"), "w")
        self.proc = subprocess.Popen([env.bddfc, "serve", "--socket", self.sock_path],
                                     stdin=subprocess.DEVNULL, stdout=self.log,
                                     stderr=self.log)
        self.schedstat = os.open("/proc/%d/schedstat" % self.proc.pid, os.O_RDONLY)
        self.cpu_seen = 0.0
        deadline = now() + 30
        while True:
            try:
                self.client = Client(self.sock_path, SERVE_REPLY_HARD_S)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or now() > deadline:
                    self.stop()
                    raise SystemExit("e2ebench: bddfc serve did not come up")
                time.sleep(0.005)

    def cpu_s(self):
        """The CPU time of the server's main thread so far, in seconds,
        from the scheduler's run time in nanoseconds.  It leaves out time
        the hypervisor gave to other tenants.  With the default
        --domains 1 the main thread does all of the server's work.  The
        scheduler books run time at each tick and when the thread blocks,
        so a read just after a reply can leave the last part of a tick
        to the next request; sums over requests are exact."""
        try:
            self.cpu_seen = int(os.pread(self.schedstat, 64, 0).split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            pass  # the server has gone; its last reading stands
        return self.cpu_seen

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            if self.proc.poll() is None and hasattr(self, "client"):
                self.client.call(json.dumps({"op": "shutdown"}))
                self.client.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired, ConnectionError):
            self.proc.kill()
            self.proc.wait()
        os.close(self.schedstat)
        self.log.close()


def setup_serve(env, last):
    stream = Stream(env.seed)
    server = Server(env)
    replies = []
    for i, req in enumerate(stream.loads):
        req = dict(req, id="load-%d" % i)
        replies.append(json.loads(server.client.call(json.dumps(req))))
    if not all(r.get("ok") for r in replies):
        server.stop()
        raise SystemExit("e2ebench: session load failed: %s" % replies)
    if not last:
        server.stop()
        return None
    return stream, server


def drive_stream(server, stream, seconds=None, count=None, probe=None):
    """Closed loop over the stream: one request in flight, and the probe,
    if given, between requests.  Returns ([(request line, kind,
    expectation, reply dict or None, rtt seconds)], wall seconds, [server
    CPU seconds per request])."""
    out, cpu, t0 = [], [], now()
    while True:
        if probe is not None:
            probe.between()
        if count is not None and len(out) >= count:
            break
        if seconds is not None and now() - t0 >= seconds:
            break
        req, kind, exp = stream.next()
        req["id"] = stream.n
        line = json.dumps(req, separators=(",", ":"))
        c1 = server.cpu_s()
        t1 = now()
        try:
            raw = server.client.call(line)
            rtt = now() - t1
            cpu.append(server.cpu_s() - c1)
            reply = json.loads(raw)
        except (OSError, ConnectionError, ValueError) as e:
            log("e2ebench: request %d got no reply: %s" % (stream.n, e))
            out.append((line, kind, exp, None, now() - t1))
            cpu.append(server.cpu_s() - c1)
            break
        out.append((line, kind, exp, reply, rtt))
    return out, now() - t0, cpu


def check_serve(stream, records):
    """Per-record failure reason or None.  Writes are checked against the
    client's own bookkeeping; reads against the session's closure computed
    independently at that database version, for a sample of versions
    (every read at a sampled version is checked)."""
    reasons = [None] * len(records)
    versions = {}
    dbs = {name: {0: db} for name, db in stream.initial.items()}
    for i, (line, kind, exp, reply, _) in enumerate(records):
        if reply is None:
            reasons[i] = "no reply"
            continue
        if not reply.get("ok"):
            reasons[i] = "error reply: %s" % reply.get("error")
            continue
        req = json.loads(line)
        if reply.get("id") != req["id"]:
            reasons[i] = "reply id mismatch"
            continue
        if kind == "write":
            if reply.get(exp["key"]) != exp["count"] or reply.get("db_facts") != exp["db_facts"]:
                reasons[i] = "write reply %s, expected %s=%d db_facts=%d" % (
                    reply, exp["key"], exp["count"], exp["db_facts"])
            dbs[exp["version"][0]][exp["version"][1]] = exp["db"]
        else:
            versions.setdefault(exp, []).append(i)
    sessions = {s[0]: s for s in SERVE_SESSIONS}
    checked, selftest_ok = 0, False
    for name in stream.names:
        vs = sorted(v for (n, v) in versions if n == name)
        if not vs:
            continue
        stride = max(1, len(vs) // SERVE_CHECK_VERSIONS)
        sample = set(vs[::stride]) | {vs[-1]}
        for v in sorted(sample):
            _, _, pred, _, _, derive = sessions[name]
            edges = dbs[name][v]
            closure = check.Facts(
                [("e", ("v%d" % a, "v%d" % b)) for a, b in edges]
                + [(pred, ("v%d" % a, "v%d" % b)) for a, b in derive(edges)])
            for i in versions[(name, v)]:
                checked += 1
                line, _, _, reply, _ = records[i]
                req = json.loads(line)
                q = check.parse_program(req["query"])["queries"][0]
                truth = check.holds(closure, q)
                why = _read_mismatch(req["op"], reply, truth)
                if why:
                    reasons[i] = why
                elif req["op"] == "query" and not selftest_ok:
                    # self-test: the same reply with its answer flipped must fail
                    flipped = dict(reply, holds=not reply.get("holds"))
                    selftest_ok = _read_mismatch("query", flipped, truth) is not None
    return reasons, checked, selftest_ok


def _read_mismatch(op, reply, truth):
    """A definite answer must agree with the oracle; an undecided judge or
    cert answer is not wrong."""
    if op == "query":
        if reply.get("complete") is not True:
            return "query answered from an incomplete prefix"
        if reply.get("holds") is not truth:
            return "query holds=%s, oracle says %s" % (reply.get("holds"), truth)
        return None
    v = reply.get("verdict" if op == "judge" else "result")
    if v == "certain" and not truth:
        return "%s says certain, oracle says the query fails" % op
    if v in ("countermodel", "model") and (truth or reply.get("verified") is not True):
        return "%s countermodel (verified %s), oracle says holds=%s" % (
            op, reply.get("verified"), truth)
    return None


def server_accounting(server, sent, client_failures):
    """Ask the server for its own counters and compare with the client's."""
    stats = json.loads(server.client.call(json.dumps({"op": "stats", "id": "stats"})))
    total = stats.get("requests_total")
    failed = stats.get("requests_failed", 0) + stats.get("overloaded_total", 0)
    ok = total == sent + 1 and failed == client_failures
    log("e2ebench: server stats requests_total=%s (sent %d + stats), failed+overloaded=%s "
        "(client counted %d): %s" % (total, sent, failed, client_failures,
                                     "ok" if ok else "MISMATCH"))
    return ok


def measure_serve(env):
    fresh_dir(env.work)
    (stream, server), setup_s = timed_setups(lambda last: setup_serve(env, last))
    try:
        probe = Probe(env)
        records, wall, cpu = drive_stream(server, stream, seconds=env.args.seconds,
                                          probe=probe)
        rss = server.peak_rss_mb()
        reasons, checked, selftest_ok = check_serve(stream, records)
        client_failures = sum(1 for (_, _, _, rep, _) in records
                              if rep is None or not rep.get("ok"))
        accounting_ok = server_accounting(server, len(records) + len(stream.loads),
                                          client_failures)
    finally:
        server.stop()
    failed = sum(1 for r in reasons if r)
    for i, r in enumerate(reasons):
        if r:
            log("e2ebench: FAILED request %s: %s" % (records[i][0][:120], r))
            break
    # Timed by the server's CPU time per request, scaled to the reference
    # speed (README.md, Steadiness and bounds); the client's round trips
    # are logged beside it.
    f = probe.scale()
    cpu = [c * f for c in cpu]
    reads = [c * 1e3 for c, r in zip(cpu, records) if r[1] == "read"]
    log("e2ebench: read p50 %.4f ms server CPU (scaled), %.4f ms round trip" % (
        median(reads), median([r[4] * 1e3 for r in records if r[1] == "read"])))
    verdicts = verdicts_decided = 0
    for line, _, _, rep, _ in records:
        op = json.loads(line)["op"]
        if op in ("judge", "cert"):
            verdicts += 1
            if rep and (rep.get("verdict") or rep.get("result")) in DEFINITE:
                verdicts_decided += 1
    n = len(records)
    log("e2ebench: %d requests (%.1f cycles) in %.2f s; %d reads re-derived; "
        "%d failed; self-test %s" % (n, n / len(stream.cycle), wall, checked, failed,
                                     "ok" if selftest_ok else "FAILED"))
    metrics = end_to_end(setup_s, reads, largest_mean(reads, 0.01), n / sum(cpu), failed / n,
                         verdicts_decided / max(1, verdicts), rss)
    return accounting_ok and selftest_ok, n, failed, metrics


DEFINITE = ("certain", "countermodel", "model")


def end_to_end(setup_s, lat_ms, tail_ms, ops_per_s, failed_share, decided_share, rss_mb):
    """The end-to-end metrics every workload reports (README.md has what
    each one means per workload)."""
    return {
        "setup_s": (setup_s, "s"),
        "p50_ms": (median(lat_ms), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "ok_share": (1 - failed_share, "share"),
        "decided_share": (decided_share, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ------------------------------------------------------------ traced run

PER_LAYER_UNITS = {
    "cli.startup_ms": "ms", "logic.parse_ms": "ms", "classes.recognize_ms": "ms",
    "rewriting.kappa_ms": "ms", "rewriting.kappa_calls": "count",
    "rewriting.steps": "count", "rewriting.complete_share": "share",
    "hom.join_probes": "count", "hom.index_ops": "count", "hom.plan_hit_share": "share",
    "hom.containment_hit_share": "share", "hom.hc_hit_share": "share",
    "hom.eval_memo_hit_share": "share",
    "chase.run_ms": "ms", "chase.rounds": "count", "chase.facts_added": "count",
    "chase.nulls_invented": "count", "chase.facts_per_kprobe": "count",
    "chase.skeleton_ms": "ms", "chase.saturate_ms": "ms",
    "chase.maintain_ms": "ms", "chase.maintain_deleted": "count",
    "chase.maintain_rederived": "count", "chase.maintain_inserted": "count",
    "chase.maintain_bailouts": "count", "chase.rederive_share": "share",
    "ptp.coloring_ms": "ms", "ptp.refine_ms": "ms", "ptp.quotient_ms": "ms",
    "ptp.refine_classes": "count", "ptp.compression_ratio": "ratio",
    "finitemodel.normalize_ms": "ms", "finitemodel.verify_ms": "ms",
    "finitemodel.verify_calls": "count", "finitemodel.quotient_attempts": "count",
    "finitemodel.model_share": "share", "finitemodel.naive_ms": "ms",
    "finitemodel.naive_nodes": "count", "finitemodel.absence_ms": "ms",
    "analysis.load_ms": "ms",
    "serve.handle_read_us": "us", "serve.handle_write_us": "us", "serve.wire_us": "us",
    "serve.sessions_built": "count", "serve.write_p50_ms": "ms", "serve.write_p90_ms": "ms",
    "gc.minor_mwords": "Mwords", "gc.major_mwords": "Mwords", "gc.top_heap_mb": "MB",
    "trace.overhead_share": "share",
}


def ratio(a, b):
    return a / b if b else 0.0


def cli_startup_ms(env):
    return median([run_child([env.bddfc, "--version"], 10)[0] * 1000
                   for _ in range(STARTUP_REPS)])


def run_tracer(env, args):
    r = subprocess.run([env.tracer] + args, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise SystemExit("e2ebench: tracer failed: %s" % r.stderr[-2000:])
    return json.loads(r.stdout.splitlines()[-1])


def hom_and_runtime(m, agg, units):
    c = agg["counters"]
    get = lambda k: c.get(k, 0)  # noqa: E731
    m["hom.join_probes"] = get("eval.join_probes") / units
    m["hom.index_ops"] = get("eval.index_ops") / units
    m["hom.plan_hit_share"] = ratio(get("eval.plan_cache_hits"),
                                    get("eval.plan_cache_hits") + get("eval.plans_compiled"))
    m["hom.containment_hit_share"] = ratio(get("containment.memo_hits"),
                                           get("containment.memo_lookups"))
    m["hom.hc_hit_share"] = ratio(get("hc.hits"), get("hc.lookups"))
    m["hom.eval_memo_hit_share"] = ratio(get("hc.eval_memo_hits"), get("hc.eval_memo_lookups"))
    m["chase.rounds"] = get("chase.rounds") / units
    m["chase.facts_added"] = get("chase.facts_added") / units
    m["chase.nulls_invented"] = get("chase.nulls_invented") / units
    m["chase.facts_per_kprobe"] = ratio(get("chase.facts_added"), get("eval.join_probes") / 1000)
    m["gc.minor_mwords"] = agg["minor_words"] / 1e6 / units
    m["gc.major_mwords"] = agg["major_words"] / 1e6 / units
    m["gc.top_heap_mb"] = agg["top_heap_mb"]
    m["trace.overhead_share"] = agg["traced_s"] / agg["untraced_s"] - 1


def trace_programs(env, mode):
    """One whole pass: every program once through the CLI (checked as in
    the untraced run), then the staged in-process pipeline and the
    library's own entry point over the same files."""
    if mode == "judge":
        progs = setup_judge(env, True)
        cmd, hard = judge_cmd(env), JUDGE_HARD_S
        extra = ["--timeout", "%g" % JUDGE_TIMEOUT_S]
    else:
        progs = setup_model(env, True)
        cmd, hard = model_cmd(env), MODEL_HARD_S
        extra = []
    verifier = Verifier(env, mode)
    cli = []
    for p in progs:
        _, rc, out, _, _, _ = run_child(cmd(p), hard)
        parse = check.judge_output if mode == "judge" else check.model_output
        cli.append((verifier.classify(p, rc, out), parse(out)[0] if rc is not None else "killed"))
    agg = run_tracer(env, [mode, "--spans", os.path.join(env.work, "spans.json")] + extra
                     + [p.path for p in progs])
    failed = sum(1 for o, _ in cli if o.startswith("failed"))
    differ = [(p.name, v, s, lib) for p, (_, v), s, lib in
              zip(progs, cli, agg["verdicts"], agg["library_verdicts"])
              if not (v == s == lib)]
    # Under `judge --timeout T` a program near T can be decided in one run
    # and stopped by the deadline in another; only two different definite
    # verdicts contradict each other.
    mismatches = [d for d in differ if len({v for v in d[1:] if v in DEFINITE}) > 1
                  or mode == "model"]
    for name, v, s, lib in differ[:10]:
        log("e2ebench: verdicts differ on %s: cli %s, staged %s, library %s%s"
            % (name, v, s, lib, "" if (name, v, s, lib) in mismatches else
               " (deadline-dependent)"))
    n = len(progs)
    self_s, root_s = agg["self_s"], agg["root_s"]
    glue = self_s.get("program", 0.0)
    reconciled = glue <= GLUE_EPSILON * root_s
    log("e2ebench: traced %d programs; root %.3f s, unattributed %.4f s; %d verdict "
        "mismatches" % (n, root_s, glue, len(mismatches)))
    ms = lambda name: self_s.get(name, 0.0) * 1000 / n  # noqa: E731
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    m["cli.startup_ms"] = cli_startup_ms(env)
    m["logic.parse_ms"] = ms("logic.parse")
    m["classes.recognize_ms"] = ms("classes.recognize")
    m["rewriting.kappa_ms"] = ms("rewriting.kappa")
    m["rewriting.kappa_calls"] = agg["kappa_calls"] / n
    m["rewriting.steps"] = agg["counters"].get("rewrite.steps", 0) / n
    m["rewriting.complete_share"] = ratio(agg["kappa_complete"], agg["kappa_calls"])
    m["chase.run_ms"] = ms("chase.run")
    m["chase.skeleton_ms"] = ms("chase.skeleton")
    m["chase.saturate_ms"] = ms("chase.saturate")
    m["ptp.coloring_ms"] = ms("ptp.coloring")
    m["ptp.refine_ms"] = ms("ptp.refine")
    m["ptp.quotient_ms"] = ms("ptp.quotient")
    m["ptp.refine_classes"] = ratio(agg["refine_classes"], agg["refine_calls"])
    m["ptp.compression_ratio"] = ratio(agg["compression_sum"], agg["refine_calls"])
    m["finitemodel.normalize_ms"] = ms("finitemodel.normalize")
    m["finitemodel.verify_ms"] = ms("finitemodel.verify")
    m["finitemodel.verify_calls"] = agg["verify_calls"] / n
    m["finitemodel.quotient_attempts"] = agg["quotient_attempts"] / n
    m["finitemodel.model_share"] = sum(1 for v in agg["verdicts"] if v == "countermodel") / n
    m["finitemodel.naive_ms"] = ms("finitemodel.naive")
    m["finitemodel.naive_nodes"] = agg["counters"].get("naive.nodes", 0) / n
    m["finitemodel.absence_ms"] = ms("finitemodel.absence")
    hom_and_runtime(m, agg, n)
    correct = reconciled and not mismatches
    return correct, n, failed + len(mismatches), m


def trace_serve(env):
    """A fixed-length prefix of the stream through the socket server, then
    the same lines through Server.handle_line in-process; replies must be
    byte-identical."""
    fresh_dir(env.work)
    stream, server = setup_serve(env, True)
    try:
        records, _, _ = drive_stream(server, stream, count=len(stream.cycle))
    finally:
        server.stop()
    reasons, _, _ = check_serve(stream, records)
    req_path = os.path.join(env.work, "requests.jsonl")
    rep_path = os.path.join(env.work, "replies.jsonl")
    loads = [json.dumps(dict(r, id="load-%d" % i), separators=(",", ":"))
             for i, r in enumerate(stream.loads)]
    with open(req_path, "w") as f:
        f.write("\n".join(loads + [r[0] for r in records]) + "\n")
    agg = run_tracer(env, ["serve", "--requests", req_path, "--replies", rep_path,
                           "--spans", os.path.join(env.work, "spans.json")])
    with open(rep_path) as f:
        traced = [json.loads(l) for l in f.read().splitlines()]
    socket_replies = [r[3] for r in records]
    mismatches = sum(1 for a, b in zip(traced[len(loads):], socket_replies) if a != b)
    log("e2ebench: traced %d requests; %d replies differ from the socket server's"
        % (len(records), mismatches))
    handle = agg["handle_s"]
    load_s = handle[:len(loads)]
    handle = handle[len(loads):]
    kinds = [r[1] for r in records]
    rtt = [r[4] for r in records]
    reads = [h for h, k in zip(handle, kinds) if k == "read"]
    writes = [h for h, k in zip(handle, kinds) if k == "write"]
    wire = [(t - h) * 1e6 for t, h, k in zip(rtt, handle, kinds) if k == "read"]
    n = len(records)
    c, t = agg["counters"], agg["timers_s"]
    mt = agg["maintain"]
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    m["cli.startup_ms"] = cli_startup_ms(env)
    m["rewriting.kappa_ms"] = t.get("rewrite.run", 0.0) * 1000 / n
    m["rewriting.kappa_calls"] = c.get("rewrite.runs", 0) / n
    m["rewriting.steps"] = c.get("rewrite.steps", 0) / n
    m["chase.run_ms"] = t.get("chase.run", 0.0) * 1000 / n
    m["finitemodel.naive_ms"] = t.get("naive.search", 0.0) * 1000 / n
    m["finitemodel.naive_nodes"] = c.get("naive.nodes", 0) / n
    m["finitemodel.quotient_attempts"] = c.get("pipeline.quotient_attempts", 0) / n
    writes_n = max(1, mt["writes"])
    m["chase.maintain_ms"] = mt["s"] * 1000 / writes_n
    m["chase.maintain_deleted"] = mt["deleted"] / writes_n
    m["chase.maintain_rederived"] = mt["rederived"] / writes_n
    m["chase.maintain_inserted"] = mt["inserted"] / writes_n
    m["chase.maintain_bailouts"] = mt["bailouts"] / writes_n
    m["chase.rederive_share"] = ratio(mt["rederived"], mt["deleted"])
    m["analysis.load_ms"] = median(load_s) * 1000
    m["serve.handle_read_us"] = median(reads) * 1e6
    m["serve.handle_write_us"] = median(writes) * 1e6
    m["serve.wire_us"] = median(wire)
    m["serve.sessions_built"] = c.get("server.sessions_built", 0)
    write_rtt = [t * 1e3 for t, k in zip(rtt, kinds) if k == "write"]
    m["serve.write_p50_ms"] = median(write_rtt)
    m["serve.write_p90_ms"] = pct(write_rtt, 0.90)
    hom_and_runtime(m, agg, n)
    failed = sum(1 for r in reasons if r) + mismatches
    return mismatches == 0, n, failed, m


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    env = Env(args)
    # keep the compilers' and children's temporary files inside the checkout
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    build(env)
    os.makedirs(env.work, exist_ok=True)
    kind = {"judge-mix": "judge", "model-closure": "model"}.get(args.workload)
    # One operation runs at a time, so every workload runs on one core:
    # the client, the bddfc child or server, and the probe, which then
    # measures the core the work ran on.  For serve, two cores made each
    # ~50 us round trip wake a halted core twice, which cost 40% more
    # server time and swung with the other tenants' load (README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        if kind:
            correct, attempted, failed, metrics = trace_programs(env, kind)
        else:
            correct, attempted, failed, metrics = trace_serve(env)
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}
    elif kind:
        correct, attempted, failed, metrics = measure_programs(env, kind)
    else:
        correct, attempted, failed, metrics = measure_serve(env)
    correct = bool(correct) and failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "nproc": env.nproc,
                      "trace": args.trace}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
