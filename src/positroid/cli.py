"""The `positroid` command line tool.

Subcommands convert between the artifact's objects (networks, matrices,
Le-tableaux, plabic graphs, decorated permutations), run the rewriting
engine, enumerate cells, and run the invariant self-check suite.

Exit codes: 0 success or help (`-h` lists the commands), 1 input, validation
or usage error, 2 mathematical precondition failure (e.g. a non-tnn matrix fed
to `invert`); every error is one line on stderr.  Options are not abbreviated.
"""

import json
import sys
from types import SimpleNamespace

from . import enumeration, lediagram, network, permutations, plabic
from .exactmath import RationalMatrix, format_rational, integer


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
        if args.n is not None or args.k is not None:
            raise ValueError("poset takes --covers PERM or --n N (with an optional --k K), not both")
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


_JSON = {"--json": (bool, False)}

# name -> (help, positionals, options); subcommand `x-y` runs `cmd_x_y`.  Options map
# --flag to (type, default): bool is a switch, int is read by exactmath.integer, and a
# default of ... makes it required.
COMMANDS = {
    "measure": ("boundary measurements of a network file; --matrix prints A(N) instead of "
                "Plucker coordinates", ("file",), {"--matrix": (bool, False), **_JSON}),
    "invert": ("recover the Le-tableau of a tnn matrix", ("file",), _JSON),
    "perfect": ("perfect trivalent form of a network", ("file",), _JSON),
    "le2net": ("hook network of a Le-tableau", ("file",), _JSON),
    "le2perm": ("decorated permutation of a Le-tableau", ("file",), _JSON),
    "perm2le": ("Le-diagram of a decorated permutation", ("perm",), _JSON),
    "perm2graph": ("reduced plabic graph of a decorated permutation", ("perm",), _JSON),
    "trips": ("decorated trip permutation", ("file",), _JSON),
    "reduce": ("reduce a plabic graph/network", ("file",), _JSON),
    "matroid": ("matroid of perfect orientations", ("file",), _JSON),
    "moves": ("list applicable move/reduction sites", ("file",), _JSON),
    "move": ("apply a move/reduction at a site, e.g. 'M1 4 1', 'M2 7', 'R1 2 3'", ("file",),
             {"--site": (str, ...), **_JSON}),
    "leq": ("circular Bruhat comparison of two permutations", ("perm1", "perm2"), _JSON),
    "poset": ("the cells a decorated permutation covers, or every cell of [n] (of type k)", (),
              {"--covers": (str, None), "--k": (int, None), "--n": (int, None), **_JSON}),
    "count": ("cell-count table; --q gives q-polynomials by dimension", (),
              {"--n": (int, ...), "--q": (bool, False), "--check-all": (bool, False),
               "--csv": (bool, False)}),
    "export-dot": ("DOT rendering of a plabic file", ("file",), {}),
    "selfcheck": ("run the invariant suite at size n", (), {"--n": (int, 4), "--seed": (int, 0)}),
}


def _usage(name):
    """Two lines: how subcommand `name` is called, then what it does."""
    helptext, positionals, options = COMMANDS[name]
    words = [name, *(p.upper() for p in positionals)]
    for flag, (kind, default) in options.items():
        word = flag if kind is bool else f"{flag} {flag[2:].upper()}"
        words.append(word if default is ... else f"[{word}]")
    return f"positroid {' '.join(words)}\n    {helptext}"


def _parse(argv):
    """`cmd` and one field per positional and option of a command line, or `cmd` None and
    the `help` text that -h asks for.  Misuse raises ValueError; a value is the next token."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return SimpleNamespace(cmd=None, help="\n".join(map(_usage, COMMANDS)))
    if name not in COMMANDS:
        what = f"unknown command {name!r}" if argv else "no command given"
        raise ValueError(f"{what}; positroid --help lists the commands")
    _, positionals, options = COMMANDS[name]
    fields = {flag: default for flag, (_, default) in options.items()}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":        # a lone - names stdin
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag in ("-h", "--help"):
            return SimpleNamespace(cmd=None, help=_usage(name))
        if flag not in options:
            raise ValueError(f"{name} has no option {flag}; positroid {name} --help lists them")
        kind = options[flag][0]
        if kind is not bool and not eq:
            value = next(tokens, None)
        if value is None or kind is bool and eq:
            raise ValueError(f"{flag} {'takes no' if eq else 'needs a'} value")
        try:
            fields[flag] = True if kind is bool else integer(value) if kind is int else value
        except ValueError:
            raise ValueError(f"{flag} needs an integer, not {value!r}") from None
    missing = [flag for flag, value in fields.items() if value is ...]
    if len(given) != len(positionals) or missing:
        problem = (f"{missing[0]} is required" if missing
                   else f"{name} takes {len(positionals)} argument(s), not {len(given)}")
        raise ValueError(f"{problem}; positroid {name} --help shows the usage")
    return SimpleNamespace(cmd=name, **dict(zip(positionals, given)),
                           **{flag[2:].replace("-", "_"): value for flag, value in fields.items()})


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.cmd is None:
            print(args.help)
            return 0
        # looked up at call time, so that rebinding a cmd_* function takes effect
        return globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except (PreconditionError, plabic.NotPerfectlyOrientable, plabic.FixedPointWithoutLeaf,
            lediagram.NotTotallyNonnegative) as ex:
        print(f"precondition failed: {ex}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
