"""The graph-name registry (named.by_name) and the CLI's graph references."""

import re
import tracemalloc
from pathlib import Path

import pytest

from hcolour.canonical import canonical_digest
from hcolour.cli import load_graph, main
from hcolour.graphio import decode_record, encode_graph6
from hcolour.named import (
    LabelledGraph,
    UnknownGraphName,
    by_name,
    complete,
    complete_minus_edge,
    cycle,
    j_graph,
    k_family_members,
    path,
    petersen,
    poorly_matchable_ten_vertices,
    s4,
    s4_plus_km,
    s6,
    s6_plus_km,
    s10,
    s12,
    s12_plus_km,
    star,
    t_k2,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# Every form of the grammar, with the constructor call it denotes.
DIRECT = {
    "petersen": petersen,
    "p": petersen,
    "Petersen": petersen,
    "s4": s4,
    "s6": s6,
    "s10": s10,
    "s12": s12,
    "pm10": poorly_matchable_ten_vertices,
    "s4+0m": lambda: s4_plus_km(0),
    "s4+2M": lambda: s4_plus_km(2),
    "s6+1m": lambda: s6_plus_km(1),
    "s12+1M": lambda: s12_plus_km(1),
    "s12+2M": lambda: s12_plus_km(2),
    "k1": lambda: complete(1),
    "k5": lambda: complete(5),
    "K7": lambda: complete(7),
    "k5-e": lambda: complete_minus_edge(5),
    "c6": lambda: cycle(6),
    "path5": lambda: path(5),
    "star3": lambda: star(3),
    "3k2": lambda: t_k2(3),
    "j4": lambda: j_graph(2),
    "J6": lambda: j_graph(3),
    "kfamily-5-4": lambda: LabelledGraph(k_family_members(5, 4)[0]),
    "kfamily-5-4-0": lambda: LabelledGraph(k_family_members(5, 4)[0]),
    "kfamily-4-5-1": lambda: LabelledGraph(k_family_members(4, 5)[1]),
    "KFAMILY-4-7-3": lambda: LabelledGraph(k_family_members(4, 7)[3]),
}


def _readme_names() -> list[str]:
    text = README.read_text()
    listing = re.search(r"named constructions \(([^)]*)\)", text).group(1)
    return re.findall(r"`([^`]+)`", listing)


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_by_name_matches_constructor(name):
    want = DIRECT[name]()
    got = by_name(name)
    assert (got.graph.n, got.graph.edges, got.graph.name) == (
        want.graph.n, want.graph.edges, want.graph.name
    )
    assert got.vertex_labels == want.vertex_labels
    assert got.edge_labels == want.edge_labels
    loaded = load_graph(name)
    assert (loaded.n, loaded.edges, loaded.name) == (
        want.graph.n, want.graph.edges, want.graph.name
    )


@pytest.mark.parametrize(
    "name, message",
    [
        ("c2", "c2: n must be at least 3"),
        ("k0", "k0: n must be positive"),
        ("j2", "j2: r must be greater than 1"),
        ("j3", "j3: j-graphs are defined for even subscripts"),
        ("kfamily-1-3", "kfamily-1-3: need t >= 2"),
        ("kfamily-3-4-9", "kfamily-3-4-9: kfamily-3-4 has 1 members; index 9"),
        ("s4+-1m", "unknown graph name 's4+-1m'"),
        ("nonesuch", "unknown graph name 'nonesuch'"),
    ],
)
def test_by_name_errors_name_the_reference(name, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        by_name(name)


@pytest.mark.parametrize("name", [
    "k\u0663", "c\u0665", "s12+\u0661m", "j\u0664", "kfamily-\u0665-\u0664",  # Arabic-Indic digits
    "\u212a5",  # KELVIN SIGN, which lower() takes to k
])
def test_by_name_takes_ascii_names_only(name, capsys):
    with pytest.raises(UnknownGraphName, match=f"^unknown graph name {re.escape(repr(name))}$"):
        by_name(name)
    with pytest.raises(SystemExit) as info:
        main(["gen", name])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown graph name {name!r}\n"


def test_by_name_unknown_is_distinct_from_bad_parameter():
    with pytest.raises(UnknownGraphName):
        by_name("k5e")
    with pytest.raises(ValueError) as info:
        by_name("c2")
    assert not isinstance(info.value, UnknownGraphName)


def test_registry_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "petersen").write_text("2 1\n0 1\n")
    assert load_graph("petersen") == petersen().graph
    (tmp_path / "mygraph").write_text("2 1\n0 1\n")
    assert load_graph("mygraph").edges == ((0, 1),)


def test_decode_record_dispatches_on_prefix():
    P = petersen().graph
    record = encode_graph6(P)
    assert sorted(decode_record(record).edges) == sorted(P.edges)
    assert decode_record(">>graph6<<" + record + "\n") == decode_record(record)
    multi = decode_record(":C_kQ")  # sparse6 keeps its parallel edges
    assert multi.m == 6 and decode_record(">>sparse6<<:C_kQ") == multi
    with pytest.raises(ValueError):
        decode_record("!!bad!!")


def test_readme_names_are_all_in_the_table():
    names = _readme_names()
    assert "kfamily-5-4-0" in names and "s12+2M" in names
    assert set(names) <= set(DIRECT)


@pytest.mark.parametrize("name", _readme_names())
def test_gen_round_trips_every_documented_name(name, tmp_path, capsys):
    assert main(["gen", name]) == 0
    text = capsys.readouterr().out
    f = tmp_path / "g.txt"
    f.write_text(text)
    got = load_graph(str(f))
    want = DIRECT[name]().graph
    assert got == want
    digest = canonical_digest(want)
    assert canonical_digest(got) == digest
    assert f"# canonical {digest}" in text.splitlines()


def test_gen_labels_name_their_vertex_ids(capsys):
    assert main(["gen", "s10"]) == 0
    out = capsys.readouterr().out
    vertices = next(l for l in out.splitlines() if l.startswith("# vertices:"))
    assert "9=c" in vertices.split()


# -- bad references on the command line ---------------------------------------

BAD_REFS = ["c2", "k0", "j2", "j3", "kfamily-1-3", "kfamily-3-4-9", "nonesuch",
            "<empty file>", "<malformed g6>", "<directory>"]


def _command(cmd: str, ref: str, corpus: Path) -> list[str]:
    return {
        "solve": ["solve", "--host", ref, "--guest", "petersen"],
        "images": ["images", "--guest", ref],
        "gen": ["gen", ref],
        "corpus": ["corpus", str(corpus), "--host", ref, "--workers", "1"],
    }[cmd]


@pytest.mark.parametrize("cmd", ["solve", "images", "gen", "corpus"])
@pytest.mark.parametrize("ref", BAD_REFS)
def test_bad_graph_reference_exits_2(cmd, ref, tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(encode_graph6(petersen().graph) + "\n")
    files = {"<empty file>": "# nothing here\n", "<malformed g6>": "!!bad!!\n"}
    if ref in files:
        (tmp_path / "g.g6").write_text(files[ref])
        ref = str(tmp_path / "g.g6")
    elif ref == "<directory>":
        ref = str(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(_command(cmd, ref, corpus))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and ref in lines[0]


# -- graphs past the size and multiplicity limits ------------------------------

SIZE = "at most 258047 of each are supported"
TOO_LARGE = {
    "s4+300m": "k must be at most 253",
    "s6+254M": "k must be at most 253",
    "s12+100000000m": "k must be at most 253",
    "300k2": "t must be at most 255",
    "k30000": f"30000 vertices and 449985000 edges; {SIZE}",
    "k719": f"719 vertices and 258121 edges; {SIZE}",
    "k719-e": f"719 vertices and 258120 edges; {SIZE}",
    "c258048": f"258048 vertices and 258048 edges; {SIZE}",
    "path258049": f"258049 vertices and 258048 edges; {SIZE}",
    "star258047": f"258048 vertices and 258047 edges; {SIZE}",
    "j102": f"5254 vertices and 267954 edges; {SIZE}",
    "kfamily-720-719": f"720 vertices and 258840 edges; {SIZE}",
    "<300 parallel edges>": "edge multiplicities above 255 are not supported",
}


@pytest.mark.parametrize("cmd, ref", [
    (cmd, ref) for ref in sorted(TOO_LARGE) for cmd in ("solve", "images", "gen", "corpus")
    if cmd != "gen" or not ref.startswith("<")  # gen takes graph names only
])
def test_a_graph_past_a_limit_exits_2_before_it_is_built(cmd, ref, tmp_path, capsys):
    message = TOO_LARGE[ref]
    if ref == "<300 parallel edges>":
        ref = str(tmp_path / "g.txt")
        Path(ref).write_text("2 300\n" + "0 1\n" * 300)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(encode_graph6(petersen().graph) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as info:
            main(_command(cmd, ref, corpus))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ref}: {message}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["s4+253m", "s6+253M", "s12+253m", "255k2"])
def test_a_graph_at_the_multiplicity_limit_has_a_digest(name, capsys):
    assert main(["gen", name]) == 0
    digest = canonical_digest(by_name(name).graph)
    assert f"# canonical {digest}" in capsys.readouterr().out.splitlines()


def test_gen_index_option_is_gone():
    with pytest.raises(SystemExit) as info:
        main(["gen", "kfamily-4-5", "--index", "1"])
    assert info.value.code == 2
