"""The `positroid` command line tool.

Subcommands convert between the artifact's objects (networks, matrices,
Le-tableaux, plabic graphs, decorated permutations), run the rewriting
engine, enumerate cells, and run the invariant self-check suite.

Exit codes: 0 success, 1 input/validation error, 2 mathematical
precondition failure (e.g. a non-tnn matrix fed to `invert`).
"""

import argparse
import functools
import json
import sys

from . import enumeration, lediagram, network, permutations, plabic
from .exactmath import RationalMatrix, format_rational


class PreconditionError(Exception):
    """A mathematically invalid input (carries the witness)."""


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as ex:
        raise ValueError(f"cannot read {path}: {ex}")


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(payload["text"].rstrip("\n"))


def _plucker_payload(p):
    coords = {"".join(str(i) for i in key) or permutations.EMPTY: format_rational(v)
              for key, v in sorted(p.coords.items()) if v != 0}
    text = "\n".join(f"{key} {val}" for key, val in sorted(coords.items()))
    return {"k": p.k, "n": p.n, "coords": coords, "text": text}


def cmd_measure(args):
    net = network.PlanarDirectedNetwork.from_text(_read(args.file))
    if args.matrix:
        A = network.boundary_measurement_matrix(net)
        matrix = [[format_rational(x) for x in row] for row in A.rows] if args.json else None
        _emit({"matrix": matrix, "text": A.to_text()}, args.json)
    else:
        _emit(_plucker_payload(network.measure(net)), args.json)
    return 0


def cmd_invert(args):
    T = lediagram.invert_measurement(RationalMatrix.from_text(_read(args.file)))
    _emit({"k": T.k, "n": T.n, "shape": list(T.shape), "text": T.to_text()}, args.json)
    return 0


def cmd_perfect(args):
    net = network.PlanarDirectedNetwork.from_text(_read(args.file))
    out = network.perfect_and_trivalent(net)
    _emit({"text": out.to_text()}, args.json)
    return 0


def cmd_le2net(args):
    T = lediagram.LeTableau.from_text(_read(args.file))
    net = lediagram.gamma_network(T)
    _emit({"text": net.to_text()}, args.json)
    return 0


def cmd_le2perm(args):
    T = lediagram.LeTableau.from_text(_read(args.file))
    text = permutations.perm_from_le(T.diagram()).format()
    _emit({"permutation": text, "text": text}, args.json)
    return 0


def cmd_perm2le(args):
    pi = permutations.DecoratedPermutation.parse(args.perm)
    D = permutations.le_from_perm(pi)
    T = lediagram.diagram_to_tableau(D)
    _emit({"shape": list(D.shape), "fill": ["".join(str(x) for x in row) for row in D.fill],
           "text": T.to_text()}, args.json)
    return 0


def cmd_perm2graph(args):
    pi = permutations.DecoratedPermutation.parse(args.perm)
    G = plabic.graph_from_perm(pi)
    _emit({"text": G.to_text()}, args.json)
    return 0


def cmd_trips(args):
    G = _read_plabic_graph(args.file)
    text = plabic.trip_permutation(G).format()
    _emit({"permutation": text, "text": text}, args.json)
    return 0


def _read_plabic_graph(path):
    return plabic._graph_of(plabic.PlabicGraph.from_text(_read(path)))


def cmd_reduce(args):
    red, nsing, trace = plabic.reduce_graph(plabic.PlabicGraph.from_text(_read(args.file)))
    _emit({"singletons": nsing, "trace": [list(map(str, t)) for t in trace],
           "text": red.to_text()}, args.json)
    return 0


def cmd_matroid(args):
    neck = plabic.necklace(_read_plabic_graph(args.file))
    # the bases come in lex order, Matroid.to_text's lines without its set or sort
    lines = [" ".join(map(str, J)) for J in plabic.positroid_bases(neck)]
    text = "\n".join([f"{neck.k} {neck.n}", *lines]) + "\n"
    _emit({"k": neck.k, "n": neck.n, "bases": lines, "text": text} if args.json
          else {"text": text}, args.json)
    return 0


def cmd_moves(args):
    sites = plabic.move_sites(_read_plabic_graph(args.file))
    sites["M1"] = [str(key) for key in sites["M1"]]
    sites["R1"] = [list(p) for p in sites["R1"]]
    text = "\n".join(f"{k}: {v}" for k, v in sites.items())
    _emit({"sites": sites, "text": text}, args.json)
    return 0


def cmd_move(args):
    obj = plabic.PlabicGraph.from_text(_read(args.file))
    _emit({"text": plabic.apply_site(obj, plabic.parse_site(args.site)).to_text()}, args.json)
    return 0


def cmd_leq(args):
    p1 = permutations.DecoratedPermutation.parse(args.perm1)
    p2 = permutations.DecoratedPermutation.parse(args.perm2)
    if p1.type() != p2.type():
        raise PreconditionError(f"types differ: {p1.type()} vs {p2.type()}")
    result = permutations.circular_leq(p1, p2)
    _emit({"leq": result, "text": "true" if result else "false"}, args.json)
    return 0


def _check_size(n):
    """n, a --n argument, when it is at least 0."""
    if n < 0:
        raise ValueError(f"--n must be at least 0, not {n}")
    return n


def cmd_poset(args):
    if args.covers is not None:
        pi = permutations.DecoratedPermutation.parse(args.covers)
        cov = [c.format() for c in permutations.covers(pi)]
        _emit({"covers": cov, "text": "\n".join(cov) or "(none)"}, args.json)
        return 0
    if args.n is None:
        raise ValueError("poset needs --covers PERM or --n N (with an optional --k K)")
    k, n = args.k, _check_size(args.n)
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"--k must lie in 0..{n}, not {k}")
    cells = list(permutations.all_decorated_permutations(n, k))
    lines = []
    for pi in sorted(cells, key=lambda p: (-permutations.rank(p), p.perm)):
        lines.append(f"{pi.format()}  rank {permutations.rank(pi)}")
    _emit({"count": len(cells), "text": "\n".join(lines)}, args.json)
    return 0


def cmd_count(args):
    _check_size(args.n)
    if args.check_all:
        failures = []
        rows = enumeration.count_table(args.n)
        for n in range(args.n + 1):
            for k in range(n + 1):
                direct = enumeration.count_cells_by_permutations(k, n) if n <= 7 else None
                bypoly = sum(enumeration.cell_poly(k, n))
                if direct is not None and direct != rows[n][k]:
                    failures.append((k, n, "permutation count"))
                if bypoly != rows[n][k]:
                    failures.append((k, n, "Le-diagram count"))
        status = "all checks passed" if not failures else f"FAILURES: {failures}"
        print(status)
        return 0 if not failures else 2
    rows = enumeration.count_table(args.n, q=args.q)
    if args.csv:
        lines = []
        for n, row in enumerate(rows):
            for k, val in enumerate(row):
                if args.q:
                    lines.append(f"{k},{n}," + ",".join(str(c) for c in val))
                else:
                    lines.append(f"{k},{n},{val}")
        print("\n".join(lines))
        return 0
    if args.q:
        for n, row in enumerate(rows):
            for k, val in enumerate(row):
                poly = " + ".join(f"{c}q^{e}" for e, c in enumerate(val) if c)
                print(f"N_{{{k},{n}}}(q) = {poly or '0'}")
    else:
        for row in rows:
            print(" ".join(str(v) for v in row))
    return 0


def cmd_export_dot(args):
    obj = plabic.PlabicGraph.from_text(_read(args.file))
    print(plabic.export_dot(obj).rstrip("\n"))
    return 0


def cmd_selfcheck(args):
    _check_size(args.n)
    from .selfcheck import run_selfcheck
    ok = run_selfcheck(args.n, seed=args.seed)
    return 0 if ok else 2


@functools.cache
def _build_parser():
    """The argument parser, built once per process; subcommand `x-y` runs `cmd_x_y`."""
    ap = argparse.ArgumentParser(prog="positroid",
                                 description="exact combinatorics of nonnegative Grassmann cells")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("measure", help="boundary measurements of a network file")
    p.add_argument("file")
    p.add_argument("--matrix", action="store_true", help="print A(N) instead of Plucker coordinates")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("invert", help="recover the Le-tableau of a tnn matrix")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("perfect", help="perfect trivalent form of a network")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    for name, helptext in [("le2net", "hook network of a Le-tableau"),
                           ("le2perm", "decorated permutation of a Le-tableau")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("perm2le", help="Le-diagram of a decorated permutation")
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("perm2graph", help="reduced plabic graph of a decorated permutation")
    p.add_argument("perm")
    p.add_argument("--json", action="store_true")

    for name, helptext in [("trips", "decorated trip permutation"),
                           ("reduce", "reduce a plabic graph/network"),
                           ("matroid", "matroid of perfect orientations"),
                           ("moves", "list applicable move/reduction sites")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("move", help="apply a move/reduction at a site")
    p.add_argument("file")
    p.add_argument("--site", required=True, help="e.g. 'M1 4 1', 'M2 7', 'R1 2 3'")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("leq", help="circular Bruhat comparison of two permutations")
    p.add_argument("perm1")
    p.add_argument("perm2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("poset", help="covers or full cell list")
    p.add_argument("--covers", help="decorated permutation")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="cell-count table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", action="store_true", help="q-polynomials by dimension")
    p.add_argument("--check-all", action="store_true", dest="check_all")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("export-dot", help="DOT rendering of a plabic file")
    p.add_argument("file")

    p = sub.add_parser("selfcheck", help="run the invariant suite at size n")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # looked up at call time, so that rebinding a cmd_* function takes effect
    fn = globals()["cmd_" + args.cmd.replace("-", "_")]
    try:
        return fn(args)
    except (PreconditionError, plabic.NotPerfectlyOrientable, lediagram.NotTotallyNonnegative) as ex:
        print(f"precondition failed: {ex}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
