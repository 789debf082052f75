"""Command-line surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from quiddity import EvenSearchState, GeneratorSpec, Quiddity, audits, cli
from quiddity.cli import main

from helpers import child_env, shard_charges

CONJECTURE_SEARCH = Path(__file__).resolve().parents[1] / "scripts" / "conjecture_search.py"


def _with(**changes):
    return lambda state: {**state, **changes}


def _record(coeffs, sign, equiv_reducible=False):
    return {"coeffs": coeffs, "sign": sign, "equiv_reducible": equiv_reducible}


# Edits of a complete size-6, bound-1 checkpoint, whose records are the
# classes of (-1,)*6 (sign 1), (-1, -1, -1, 1, 1, 1) (sign -1) and (1,)*6 (sign 1).
_BAD_CHECKPOINTS = {
    "not-json": "{",
    "not-an-object": "[]",
    "missing-keys": "{}",
    "size-type": _with(size="6"),
    "bound-type": _with(bound=1.0),
    "unknown-mode": _with(mode="bogus"),
    "done-duplicate": _with(done=[-1, 0, 0, 1]),
    "done-outside-bound": _with(done=[-1, 0, 1, 2]),
    "unversioned": lambda state: {k: v for k, v in state.items() if k != "version"},
    # complete is derived from done and never stored
    "complete-with-shards-pending": _with(done=[-1, 1], complete=True),
    "record-outside-done-shards": _with(done=[-1, 0]),
    # (0, 1, 1, 2, 1, 1) is strictly irreducible and evenly reducible up to
    # equivalence; no size-6 class within bound 1 is both
    "equiv-record-flagged": _with(
        bound=2, done=[-2, -1, 0, 1, 2], found=[_record([0, 1, 1, 2, 1, 1], 1, True)]
    ),
    "record-missing-key": _with(found=[{"coeffs": [1, 1, 1, 1, 1, 1], "sign": 1}]),
    "record-wrong-size": _with(found=[_record([9, 9], -1)]),
    "record-outside-bound": _with(found=[_record([1, 1, 1, 1, 1, 9], 1)]),
    "record-not-canonical": _with(found=[_record([1, 1, 1, -1, -1, -1], -1)]),
    "record-wrong-sign": _with(found=[_record([1, 1, 1, 1, 1, 1], -1)]),
    "record-not-a-solution": _with(found=[_record([0, 0, 0, 0, 0, 1], 1)]),
    "record-strictly-reducible": _with(found=[_record([0, 0, 0, 0, 0, 0], -1)]),
    "record-wrong-flag": _with(found=[_record([1, 1, 1, 1, 1, 1], 1, True)]),
    "record-flag-type": _with(found=[_record([1, 1, 1, 1, 1, 1], 1, "false")]),
    "record-twice": lambda state: {**state, "found": state["found"] + state["found"][:1]},
}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_script(*argv, cwd, **env):
    return subprocess.run(
        [sys.executable, str(CONJECTURE_SEARCH), *argv],
        capture_output=True, text=True, cwd=cwd, env=child_env(**env),
    )


def run_cli_subprocess(*argv, **env):
    proc = subprocess.run(
        [sys.executable, "-m", "quiddity", *argv],
        capture_output=True,
        text=True,
        env=child_env(**env),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestVerify:
    def test_sqrt2_four_tuple(self):
        code, out = run_cli("verify", "--gen", "sqrt:2", "--tuple", "[1,1,1,1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_quiddity"] is True
        assert payload["sign"] == -1
        assert payload["elements"] == ["0+1*sqrt(2)"] * 4

    def test_element_string_input(self):
        code, out = run_cli(
            "verify", "--gen", "sqrt:2",
            "--tuple", '["0+1*sqrt(2)", "1*sqrt(2)", "sqrt(2)", "0+1*sqrt(2)"]',
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == [1, 1, 1, 1]

    def test_emitted_elements_feed_back_bit_exactly(self):
        code, out = run_cli("verify", "--gen", "isqrt:2", "--tuple", "[1,-1,1,-1]")
        assert code == 0
        elements = json.loads(out)["elements"]
        code, again = run_cli("verify", "--gen", "isqrt:2", "--tuple", json.dumps(elements))
        assert code == 0
        assert again == out

    def test_non_solution_is_still_exit_zero(self):
        code, out = run_cli("verify", "--gen", "z", "--tuple", "[1,1]")
        assert code == 0
        assert json.loads(out)["is_quiddity"] is False

    def test_off_subgroup_element_is_usage_error(self):
        code, _ = run_cli("verify", "--gen", "sqrt:2", "--tuple", '["1+1*sqrt(2)"]')
        assert code == 2

    def test_bad_generator_is_usage_error(self):
        code, _, err = run_cli_subprocess("verify", "--gen", "nope", "--tuple", "[0,0]")
        assert code == 2 and "error" in err


class TestEnumerate:
    def test_imaginary_odd_size_is_empty_success(self):
        code, out = run_cli("enumerate", "--gen", "isqrt:3", "--size", "5", "--bound", "3")
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_jsonl_roundtrips(self):
        code, out = run_cli(
            "enumerate", "--gen", "z", "--size", "4", "--bound", "2",
            "--canonical-only", "--format", "jsonl",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["type"] == "config"
        assert lines[-1]["type"] == "summary"
        for obj in lines[1:-1]:
            assert obj["type"] == "quiddity"
            q = Quiddity(GeneratorSpec.from_descriptor(obj["generator"]), obj["coeffs"])
            assert q.verify() == obj["sign"]

    def test_csv_columns(self):
        code, out = run_cli(
            "enumerate", "--gen", "z", "--size", "2", "--bound", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size,coeffs,sign,canonical,irreducible"
        assert lines[1].startswith("2,[0 0],-1,")

    def test_work_limit_exit_code(self):
        code, _, err = run_cli_subprocess(
            "enumerate", "--gen", "z", "--size", "8", "--bound", "4",
            "--work-limit", "10",
        )
        assert code == 3 and "work limit" in err

    def test_worker_count_keeps_bytes_identical(self):
        args = ("enumerate", "--gen", "sqrt:2", "--size", "6", "--bound", "2", "--format", "jsonl")
        _, serial = run_cli(*args, "--workers", "1")
        _, parallel = run_cli(*args, "--workers", "4")
        assert serial == parallel


def _rebind_everywhere(monkeypatch, fn, wrapper):
    """Replace every binding of fn in the loaded quiddity modules."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "quiddity" or name.startswith("quiddity.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


class TestSerialization:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--gen", "z", "--size", "7", "--bound", "2", "--canonical-only"),
            ("classify", "--gen", "sqrt:2", "--max-size", "6", "--bound", "2"),
            ("even-search", "--size", "6", "--bound", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_canonical_tuples_are_not_canonicalized_again(self, argv, monkeypatch):
        from quiddity.core import canonical_coeffs
        from quiddity.solve import enumerate_quiddities

        depth, calls = [0], {"inside": 0, "outside": 0}

        def counted(*args, **kwargs):
            calls["inside" if depth[0] else "outside"] += 1
            return canonical_coeffs(*args, **kwargs)

        def enumeration(*args, **kwargs):
            depth[0] += 1
            try:
                return enumerate_quiddities(*args, **kwargs)
            finally:
                depth[0] -= 1

        _rebind_everywhere(monkeypatch, canonical_coeffs, counted)
        _rebind_everywhere(monkeypatch, enumerate_quiddities, enumeration)
        for fmt in ("json", "csv"):
            code, out = run_cli(*argv, "--format", fmt)
            assert code == 0 and out
        assert calls["inside"] > 0 and calls["outside"] == 0


# stdout sha256 of commands whose bytes every change to the search must keep
_PINNED_DIGESTS = {
    "classify --gen z --max-size 6 --bound 3":
        "796ee5046d91cfc1af38b309760144ac8d373e0697e2c92a19e008318f33c240",
    "classify --gen sqrt:2 --max-size 6 --bound 3":
        "584aeb2421ca54b409b8715ff900e8e8dba1c1b29877cce35c12258da49cee33",
    "classify --gen isqrt:2 --max-size 6 --bound 3":
        "9ff1fa676b600b1d164619210def41ce09cc1e14fe68875e31bdb41088459ce1",
    "classify --gen alpha --max-size 6 --bound 3":
        "67573fb2d5eeae2d677b665161c28a0d0b6bfdb4479b83a893524ec8a1ae9789",
    "even-search --size 8 --bound 2 --mode strict":
        "a7c231da93cc2f62c9bf9ebdc4244c19cbb9fd82895d1bc8496fd6bb8372f890",
    "even-search --size 8 --bound 2 --mode up-to-equivalence":
        "df060ee8186eb8dea8e0ee3ecc72f59ed77f4f7e3685ba9141359e0d3e7aaa89",
    "enumerate --gen z --size 7 --bound 3 --canonical-only --workers 1":
        "91aa6d0f3b9930c5b6507c9c4234f1b890f9f1c7a4a1049ee5516c6d0694c96f",
    "enumerate --gen z --size 7 --bound 3 --canonical-only --workers 2":
        "91aa6d0f3b9930c5b6507c9c4234f1b890f9f1c7a4a1049ee5516c6d0694c96f",
    "enumerate --gen z:-2 --size 6 --bound 3 --canonical-only":
        "d9bf0c175ee39662b14ec48eac5f62ac506d197d3f102605a202a57591488321",
    "enumerate --gen z+nonneg --size 6 --bound 3 --canonical-only":
        "05a1da9547226f17b634d77cc3ae4595e30e7f74651fbdd74daf51bb320d2124",
    "enumerate --gen isqrt:2+nonneg --size 6 --bound 3 --canonical-only":
        "fc63b9a6f20af91e094e9d910dc4b36e4b859f08fc1927cd357f8b1f40bc4ad9",
    "enumerate --gen alpha+nonneg --size 6 --bound 3 --canonical-only":
        "e6f1bba6b5e701449700ae7f6616f85806a4b6db06d2849c65e84a4a60afdea3",
    # research scale: six walked levels, where the last level and the leaf
    # test do most of their work
    "even-search --size 10 --bound 3 --mode strict":
        "c8f62d5b35252be05ba820c6f7b800cc027bd3b325362b439da42dd6bee90193",
    "even-search --size 10 --bound 3 --mode up-to-equivalence":
        "2a3416ecab16ad5dfb79d33785a78a9f3795853a506a11513870e2c8c35243f7",
    "enumerate --gen z --size 10 --bound 3 --canonical-only":
        "ebb83bab12408384354a237cac4a7212b4e6acc757432b7380137a204e8ecbbf",
    # the pair-free walk past the default budget: a wider bound, and a size
    # whose full walk takes seconds
    "even-search --size 10 --bound 4 --mode up-to-equivalence --work-limit 1000000000":
        "65ade3e199d60b68c3e8851eb4a50c6a8f1cc14a3bf471dfcc25e9cd4dfbe3a6",
    "even-search --size 12 --bound 3 --mode up-to-equivalence --work-limit 1000000000":
        "10d1573805dadabd7cebabdae94718c0c343a407055bb60974fe4da30baddd72",
    # the frieze cap: sizes whose uncapped walk took 6.5 s and 9.0 s in-process
    "even-search --size 12 --bound 4 --mode up-to-equivalence "
    "--work-limit 1000000000000 --format jsonl":
        "e5eee1d506fe15031176d0b7fc9256624efa0b50829a7adb2d46a4e659e0bd02",
    "even-search --size 14 --bound 3 --mode up-to-equivalence "
    "--work-limit 1000000000000 --format jsonl":
        "ecbade6dc6486a880ca24fa8ee6c9ab939b95107237c45c7841ef1672c575f6a",
    # the reducing-pair walk of classify: sizes and bounds whose unpruned
    # walk scanned every reducible class (45 classes over <i>)
    "classify --gen isqrt:1 --max-size 10 --bound 3":
        "7455f484257f1296c925b2714f269b70cbda5d4d15d246e79bc2022220381f54",
    "classify --gen z --max-size 9 --bound 4":
        "0e667661836f1f035dba43a70b157decae0a90a4620c0d9aeff8fa334c2ca2ab",
    "classify --gen alpha --max-size 8 --bound 4":
        "9086c8b0ac832089b7ff4d667f8ec013028dc5ba4d5d4d16f53db07885e2c2e5",
    # plain enumeration: every tuple of each class's orbit, one scale
    # branch of the kernel each, in both shard orders and three formats
    "enumerate --gen z --size 8 --bound 3 --workers 1":
        "fea2a6b002f04dba00c30c824cf654ee6018f78264bcc554c79bcbe55c54b1fd",
    "enumerate --gen z --size 8 --bound 3 --workers 2":
        "fea2a6b002f04dba00c30c824cf654ee6018f78264bcc554c79bcbe55c54b1fd",
    "enumerate --gen sqrt:2 --size 6 --bound 3":
        "433b02aa858cba8811ad6c2485f62481c06710d2903d0c5433fe669262094dd6",
    "enumerate --gen isqrt:1 --size 6 --bound 3":
        "32598bad45443d21b35c1cdfc730b08fc5a742478e8f31a682749c64fa7e391e",
    "enumerate --gen alpha --size 6 --bound 2":
        "af1b8ab338f467c278e436fa3cbd6494f2f7ab9b9257a9b23a251b8fd22514c9",
    "enumerate --gen z:-3 --size 7 --bound 3":
        "97d07cdcd6689499392dc0eafdbf44263198244936fcb128cbb8898edc038532",
    "enumerate --gen z:0 --size 6 --bound 2":
        "b69fcc88fd1ed0dd7c622254804e797d44b1d01924eeecc98eaf3da7a44e782f",
    "enumerate --gen isqrt:2+nonneg --size 6 --bound 3":
        "c29834a348d89c14c927765db8f1d36c9aa8ef83fc7222bbbfda19deb1cde90f",
    "enumerate --gen z --size 6 --bound 2 --format text":
        "108e36b366fdfb7ef3bcbb847a34be0f6cf42248ce9b6349462c242687720dc2",
    "enumerate --gen z --size 6 --bound 2 --format csv":
        "de197cd1983b8d618918a6a6bd456051fa27f0d5eab0d524c254c5ae1a6d82a2",
    # object commands, whose payloads the CLI assembles, in json and text
    # (csv prints the json payload); a non-solution and a tuple with no
    # decomposition among them
    "verify --gen sqrt:2 --tuple [1,1,1,1]":
        "0c12359a3353e09e8a25040608f8de023561b4b5f1b28063c884da4946818a1a",
    "verify --gen sqrt:2 --tuple [1,1,1,1] --format text":
        "4497f1abde16eb94a0ebc6ff0e8e33033c886a6ef72f2915c9abdbba57779d14",
    "verify --gen z --tuple [1,2]":
        "1e4c3b7199558150aa6ceb8e6ff3c7d0283f858982be7fedd15dc023d25fc4f4",
    "verify --gen z --tuple [1,2] --format text":
        "a01c10ad3b0e82cadebedc74d2e0c73169f2d181cb4671fb770d9dfe30c3abbd",
    "verify --gen alpha --tuple [0,1,0,-1]":
        "6f7e7301925943ba2a2527581f373ef291954707803bce061a10aff54dc8ae66",
    "verify --gen alpha --tuple [0,1,0,-1] --format text":
        "b4c27e5dd1ba98c126c495b8a6b68bcd03ad19ed7b4a58e3d0391c1e79c87614",
    "decompose --gen z --tuple [2,2,1,4,1,2]":
        "268b214f90ffa265713a5f9e03b7559d172a9922dd68b28333dbc4c8017eab09",
    "decompose --gen z --tuple [2,2,1,4,1,2] --format text":
        "a42a9ce85380b76663bce13035b4115d581c80ad603837dc2875c1ebb9e4dfb5",
    "decompose --gen z --tuple [1,2,1,2,1,2,1,2] --parity even":
        "d0e9ceec95b927646a774e8e7379b4eea0b5e424b383d2d6d81f19ef285c9236",
    "decompose --gen z --tuple [1,2,1,2,1,2,1,2] --parity even --format text":
        "6a23072afc3b416d3ae73d2609de8bbb204582eba28a288295d3732f43c3110f",
    "decompose --gen sqrt:2 --tuple [-1,1,1,1,2,0]":
        "c132c9ca97299fa287fffaded344b1318da04b48fee9a2c2151f4668917a0ecf",
    "decompose --gen sqrt:2 --tuple [-1,1,1,1,2,0] --format text":
        "d9d1f59a6822bceaf63d48b12e9cc61345eba52cb0f22d3c00db64f8cc5d6ca0",
    "decompose --gen z --tuple [1,1,1]":
        "54ba7957037db9848ce15094a0695962a217bf2cd2f5d3cf9efb6a28e9c65c20",
    "decompose --gen z --tuple [1,1,1] --format text":
        "e88b4b8af79f2b70acd2e1023c4da59822308e3e49233cf3abecc4de257ad0d0",
    "phi --gen isqrt:2 --tuple [1,-1,1,-1]":
        "decc2ea511ef57d0d046e6c6328bbe19900c279451a91a98e806c73d381dd840",
    "phi --gen isqrt:2 --tuple [1,-1,1,-1] --format text":
        "e728daa5082d50e2d65273d7cb13d50117e7541d5d9265f8f9899953194ef898",
    "phi --gen sqrt:2 --tuple [1,1,1,1] --inverse":
        "5a62f48953af42cf140737b465fc7df56be8de6427fb6d3266dff2515c58d963",
    "phi --gen sqrt:2 --tuple [1,1,1,1] --inverse --format text":
        "d09c5bab911d4baef562e5c15592a96590375e3d6e60fc97c40969e7867ec42c",
    "triangulate --gen z --tuple [1,2,2,1,3]":
        "3b01bb8b9eb319eec3ed01474c7697736f467386a5d0a250fb4bdb3e817d8242",
    "triangulate --gen z --tuple [1,2,2,1,3] --format text":
        "34f2e0ac12e2c44dec9806a550f15d0adda42ae70f6f061c053406e3305b1690",
    "triangulate --gen z --tuple [0,2,0,-2]":
        "4cd41daa4102a4d0e72ea08f7cfd10966f70fe76c5a67588a4e0b6cdf4a0bc17",
    "triangulate --gen z --tuple [0,2,0,-2] --format text":
        "e07742cce972df0fb36bd495ecdda2089a0dc2cc09434f3848ec34b16cb2a75e",
    "decompose --gen z --tuple [2,2,1,4,1,2] --format csv":
        "268b214f90ffa265713a5f9e03b7559d172a9922dd68b28333dbc4c8017eab09",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("command", sorted(_PINNED_DIGESTS))
    def test_stdout_bytes_are_pinned(self, command, monkeypatch):
        monkeypatch.delenv(cli.WORK_LIMIT_ENV, raising=False)  # the config line echoes the limit
        code, out = run_cli(*command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_DIGESTS[command]


class TestClassify:
    def test_integer_classes(self):
        code, out = run_cli("classify", "--gen", "z", "--max-size", "6", "--bound", "2")
        assert code == 0
        payload = json.loads(out)
        got = {tuple(item["coeffs"]) for item in payload["items"]}
        z = GeneratorSpec.from_string("z")
        expect = {
            Quiddity(z, c).canonical().coeffs
            for c in [(1, 1, 1), (-1, -1, -1), (0, 0, 0, 0), (0, 2, 0, -2)]
        }
        assert got == expect
        assert all(item["irreducible"] is True for item in payload["items"])


class TestDecompose:
    def test_worked_example(self):
        code, out = run_cli("decompose", "--gen", "z", "--tuple", "[2,2,1,4,1,2]")
        assert code == 0
        payload = json.loads(out)
        assert payload["reducible"] is True
        w = payload["witness"]
        assert w["left"] == [1, 2, 1, 2]
        assert w["right"]["coeffs"] == [2, 1, 2, 1]

    def test_even_parity_mode(self):
        code, out = run_cli(
            "decompose", "--gen", "z", "--tuple", "[1,1,1,1,1,1]",
            "--parity", "even",
        )
        assert code == 0
        assert json.loads(out)["reducible"] is False

    @pytest.mark.parametrize("flag", ["--min-left", "--min-right"])
    def test_summand_size_flags_are_gone(self, flag, capsys):
        code, out = run_cli("decompose", "--gen", "z", "--tuple", "[1,1,1,1,1,1]", flag, "4")
        assert code == 2 and out == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_non_solution_is_usage_error(self):
        code, _ = run_cli("decompose", "--gen", "z", "--tuple", "[1,1]")
        assert code == 2


class TestMapsCommands:
    def test_phi_forward(self):
        code, out = run_cli("phi", "--gen", "isqrt:2", "--tuple", "[1,-1,1,-1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["target"]["coeffs"] == [1, 1, 1, 1]
        assert payload["target"]["generator"] == {"k": 2, "kind": "sqrt"}

    def test_phi_inverse(self):
        code, out = run_cli("phi", "--gen", "sqrt:2", "--tuple", "[1,1,1,1]", "--inverse")
        assert code == 0
        assert json.loads(out)["target"]["coeffs"] == [1, -1, 1, -1]

    def test_rescale_both_ways(self):
        code, out = run_cli("rescale", "--gen", "sqrt:2", "--tuple", "[1,1,1,1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["output"] == [1, 2, 1, 2]
        assert payload["input_sign"] == payload["output_sign"] == -1

        code, out = run_cli("rescale", "--gen", "sqrt:2", "--tuple", "[1,2,1,2]", "--inverse")
        assert code == 0
        assert json.loads(out)["output"] == [1, 1, 1, 1]

    def test_rescale_divisibility_usage_error(self):
        code, _ = run_cli("rescale", "--gen", "sqrt:2", "--tuple", "[1,3,1,2]", "--inverse")
        assert code == 2


class TestTriangulate:
    def test_witness_json(self):
        code, out = run_cli("triangulate", "--gen", "z", "--tuple", "[1,1,1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["labels"] == [1]
        assert payload["witness"]["quiddity"]["coeffs"] == [1, 1, 1]

    def test_text_diagram(self):
        code, out = run_cli(
            "triangulate", "--gen", "z", "--tuple", "[2,1,2,1]", "--format", "text"
        )
        assert code == 0
        assert "vertex sums" in out

    def test_negative_label_bound_is_usage_error(self):
        code, out = run_cli(
            "triangulate", "--gen", "z", "--tuple", "[1,1,1]", "--label-bound", "-1"
        )
        assert code == 2 and out == ""


class TestEvenSearch:
    def test_basic_run(self):
        code, out = run_cli("even-search", "--size", "6", "--bound", "1", "--format", "jsonl")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        coeffs = {tuple(obj["coeffs"]) for obj in lines if obj["type"] == "quiddity"}
        assert (1, 1, 1, 1, 1, 1) in coeffs

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("mode", ["strict", "up-to-equivalence"])
    def test_checkpoint_and_resume(self, mode, workers, tmp_path):
        ck, single_ck = tmp_path / "state.json", tmp_path / "single.json"
        args = ("even-search", "--size", "6", "--bound", "2", "--mode", mode, "--workers", workers)
        # a limit that pays for exactly the first two shards
        limit = sum(shard_charges(6, 2, mode)[:2])
        code, out = run_cli(*args, "--checkpoint", str(ck), "--work-limit", str(limit))
        assert code == 3
        assert EvenSearchState.load(ck).done == (-2, -1)
        code, resumed = run_cli(*args, "--checkpoint", str(ck))
        assert code == 0
        code, single = run_cli(*args, "--checkpoint", str(single_ck))
        assert code == 0
        assert resumed == single
        assert ck.read_bytes() == single_ck.read_bytes()

    def test_missing_checkpoint_starts_fresh_and_is_written(self, tmp_path):
        ck = tmp_path / "missing.json"
        args = ("even-search", "--size", "6", "--bound", "1")
        code, out = run_cli(*args, "--checkpoint", str(ck))
        assert code == 0 and out == run_cli(*args)[1]
        state = EvenSearchState.load(ck)
        assert state.complete and (state.size, state.bound) == (6, 1)

    @pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINTS))
    def test_untrusted_checkpoint_is_usage_error(self, case, tmp_path, capsys):
        ck = tmp_path / "s.json"
        args = ("even-search", "--size", "6", "--bound", "1", "--checkpoint", str(ck))
        assert run_cli(*args)[0] == 0
        capsys.readouterr()
        state = json.loads(ck.read_text())
        edit = _BAD_CHECKPOINTS[case]
        ck.write_text(edit if isinstance(edit, str) else json.dumps(edit(state)))
        code, out = run_cli(*args)
        assert code == 2 and out == ""
        # refused while loading, not as a mismatch with the search
        assert capsys.readouterr().err.startswith(f"error: bad checkpoint {str(ck)!r}: ")

    # sha256 of the complete checkpoint file of each mode: a change to the
    # format changes these bytes, and must bump the version with them
    @pytest.mark.parametrize("mode, digest", [
        ("strict", "efa7902e61595f600943723b6a331c8483bd053ccee57db43934456f3f3eeee9"),
        ("up-to-equivalence", "a1b5a37730a0b4e0159589fbfc92facd6276971e2227e6a7ecd3a1f498386488"),
    ])
    def test_checkpoint_bytes_are_pinned(self, mode, digest, tmp_path):
        ck = tmp_path / "c.json"
        code, _ = run_cli("even-search", "--size", "8", "--bound", "3", "--mode", mode,
                          "--checkpoint", str(ck))
        assert code == 0
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == digest

    def test_negative_bound_is_usage_error(self, capsys):
        code, out = run_cli("even-search", "--size", "6", "--bound", "-1")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_checkpoint_directory_is_usage_error_before_sweeping(
        self, tmp_path, capsys, monkeypatch
    ):
        def sweep(*args, **kwargs):
            raise AssertionError("swept before checking the checkpoint path")

        monkeypatch.setattr(cli, "search_evenly_irreducible", sweep)
        ck = tmp_path / "missing-dir" / "x.json"
        code, out = run_cli("even-search", "--size", "6", "--bound", "1", "--checkpoint", str(ck))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("guard_sweep", [False, True])
    def test_directory_as_checkpoint_is_usage_error(
        self, guard_sweep, tmp_path, capsys, monkeypatch
    ):
        if guard_sweep:  # the refusal must come before any sweep
            def sweep(*args, **kwargs):
                raise AssertionError("swept before checking the checkpoint path")

            monkeypatch.setattr(cli, "search_evenly_irreducible", sweep)
        args = ["even-search", "--size", "6", "--bound", "1", "--checkpoint", str(tmp_path)]
        code, out = run_cli(*args)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_checkpoint_is_usage_error(self, tmp_path, capsys):
        ck = tmp_path / "deep.json"
        ck.write_text("[" * 200_000)
        code, out = run_cli("even-search", "--size", "6", "--bound", "1", "--checkpoint", str(ck))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: bad checkpoint")

    @pytest.mark.parametrize(
        "content, detail",
        [(b"{", "not JSON (Expecting property name"), (b"\xff\xfe", "'utf-8' codec can't decode")],
        ids=["not-json", "not-utf8"],
    )
    def test_undecodable_checkpoint_names_its_path(self, content, detail, tmp_path, capsys):
        ck = tmp_path / "c.json"
        ck.write_bytes(content)
        code, out = run_cli("even-search", "--size", "6", "--bound", "1", "--checkpoint", str(ck))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: bad checkpoint {str(ck)!r}: {detail}")

    def test_unaffordable_shard_names_the_nodes_left(self, tmp_path, capsys):
        ck = tmp_path / "c.json"
        args = ["even-search", "--size", "14", "--bound", "3", "--work-limit", "1000"]
        empty = EvenSearchState(14, 3, "up-to-equivalence", (), ()).to_json()
        for _ in range(2):  # the second run resumes from the first one's checkpoint
            code, out = run_cli(*args, "--checkpoint", str(ck))
            assert code == 3 and out == ""
            err = capsys.readouterr().err
            assert "7 of 7 shards still pending; shard -3 needs more than the 1000 nodes left " \
                "(limit 1000)" in err
            assert f"checkpoint written to {ck}" in err
            assert ck.read_text() == empty


class TestConjectureSearchScript:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sizes", "5"),
            ("--sizes", "2"),
            ("--sizes", "4,x"),
            ("--bound", "-1"),
            ("--work-limit", "-5"),
            ("--workers", "0"),
        ],
    )
    def test_bad_flag_is_usage_error_before_any_write(self, flag, value, tmp_path):
        proc = run_script(flag, value, cwd=tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"error: argument {flag}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, path", [("--checkpoint-dir", "missing"), ("--evidence", "missing/e.jsonl")]
    )
    def test_missing_directory_is_usage_error_before_sweeping(self, flag, path, tmp_path):
        proc = run_script("--sizes", "4", "--bound", "1", flag, str(tmp_path / path), cwd=tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: the directory of" in proc.stderr and "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_checkpoint_is_usage_error_before_sweeping(self, tmp_path):
        ck = tmp_path / "even_search_n4_b1_up-to-equivalence.json"
        ck.write_text("{")
        proc = run_script("--sizes", "4", "--bound", "1", cwd=tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [ck] and ck.read_text() == "{"

    def test_unversioned_checkpoint_is_usage_error_and_keeps_the_evidence(self, tmp_path):
        (tmp_path / "ck").mkdir()
        args = ("--sizes", "6", "--bound", "1", "--checkpoint-dir", "ck")
        assert run_script(*args, cwd=tmp_path).returncode == 0
        evidence = tmp_path / "even_irreducible_evidence.jsonl"
        before = evidence.read_bytes()
        ck = Path("ck") / "even_search_n6_b1_up-to-equivalence.json"
        obj = json.loads((tmp_path / ck).read_text())
        del obj["version"]
        (tmp_path / ck).write_text(json.dumps({**obj, "complete": True}))  # the unversioned form
        proc = run_script(*args, cwd=tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(
            f"error: bad checkpoint {str(ck)!r}: an unversioned checkpoint is no longer read"
        )
        assert "Traceback" not in proc.stderr
        assert evidence.read_bytes() == before

    def test_unwritable_evidence_is_usage_error(self, tmp_path):
        (tmp_path / "ev").mkdir()
        proc = run_script("--sizes", "4", "--bound", "1", "--evidence", "ev", cwd=tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: evidence 'ev'" in proc.stderr and "Traceback" not in proc.stderr

    def test_rerun_over_complete_checkpoint_appends_again(self, tmp_path):
        for _ in range(2):
            proc = run_script("--sizes", "4", "--bound", "1", cwd=tmp_path)
            assert proc.returncode == 0
            assert proc.stdout == "n=4: 2 evenly irreducible classes (bound 1)\n"
        first, second = (tmp_path / "even_irreducible_evidence.jsonl").read_text().splitlines()
        assert first == second and json.loads(first)["count"] == 2

    def test_environment_work_limit_applies_without_the_flag(self, tmp_path):
        # the first size-8, bound-2 shard is charged more than 10 nodes
        proc = run_script("--sizes", "8", "--bound", "2", cwd=tmp_path, QUIDDITY_WORK_LIMIT="10")
        assert proc.returncode == 3 and proc.stdout == ""
        assert "checkpoint written" in proc.stderr
        ck = tmp_path / "even_search_n8_b2_up-to-equivalence.json"
        assert list(tmp_path.iterdir()) == [ck]  # no evidence line
        assert EvenSearchState.load(str(ck)).done == ()

    @pytest.mark.parametrize("value", ["ten", "-1", "1e9"])
    def test_malformed_environment_work_limit_is_usage_error_before_any_write(
        self, value, tmp_path
    ):
        # the CLI's own parse refuses the variable at the first size, before
        # any sweep or evidence write
        proc = run_script("--sizes", "4", "--bound", "1", cwd=tmp_path, QUIDDITY_WORK_LIMIT=value)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"quiddity even-search: error: argument --work-limit: " \
            f"work limit must be an integer >= 0, got {value!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_malformed_environment_work_limit_is_ignored_under_the_flag(self, tmp_path):
        # as in the CLI, where an explicit --work-limit never reads the variable
        proc = run_script("--sizes", "4", "--bound", "1", "--work-limit", "39", cwd=tmp_path,
                          QUIDDITY_WORK_LIMIT="ten")
        assert proc.returncode == 0
        assert proc.stdout == "n=4: 2 evenly irreducible classes (bound 1)\n"

    def test_work_limit_flag_overrides_the_environment(self, tmp_path):
        # the size-4, bound-1 sweep is charged more than 10 nodes and at most
        # 39: the variable alone aborts
        assert 10 < sum(shard_charges(4, 1)) <= 39
        proc = run_script(
            "--sizes", "4", "--bound", "1", "--work-limit", "39", cwd=tmp_path,
            QUIDDITY_WORK_LIMIT="10",
        )
        assert proc.returncode == 0
        assert proc.stdout == "n=4: 2 evenly irreducible classes (bound 1)\n"


class TestRefusedWithoutBuilding:
    """Every shard of a walked size pays for its v values before it builds
    anything, so a sweep of more shards than the limit pays for at that
    charge is refused up front, before even its shard list is built, and
    one the limit cuts is cut before anything of the cut shard's size is
    built; either exits 3."""

    @pytest.mark.parametrize(
        "argv, pending, values, limit",
        [
            (["enumerate", "--gen", "z", "--size", "4", "--bound", "300000", "--work-limit", "1000"],
             "", 600001, 1000),
            (["even-search", "--size", "4", "--bound", "300000", "--work-limit", "1000"],
             "600001 of 600001 shards still pending; ", 600001, 1000),
            # under the default limit: a v-entry rank dict with v just under
            # the limit, and a bound whose values and pairs no run can build
            (["enumerate", "--gen", "z", "--size", "4", "--bound", "49999999"], "", 99999999, 10**8),
            (["even-search", "--size", "6", "--bound", str(10**20)],
             f"{2 * 10**20 + 1} of {2 * 10**20 + 1} shards still pending; ", 2 * 10**20 + 1, 10**8),
        ],
        ids=["enumerate", "even-search", "enumerate-default-limit", "even-search-default-limit"],
    )
    def test_wide_bound_is_refused_without_building_it(
            self, argv, pending, values, limit, capsys, monkeypatch):
        monkeypatch.delenv("QUIDDITY_WORK_LIMIT", raising=False)
        tracemalloc.start()
        try:
            code, out = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert peak < 1_000_000
        assert capsys.readouterr().err.startswith(
            f"work limit: {pending}each shard needs {values} or more nodes, "
            f"and the limit ({limit}) pays for at most {limit // values}\n"
        )

    def test_pruned_walk_builds_no_table_per_level(self, capsys):
        # shard -300 pays for its rank dict and its one table (a row and one
        # row per partner) and walks until the limit is spent, not for 16
        # levels of 601 rows of 601 entries (some 70 MB)
        tracemalloc.start()
        try:
            code, out = run_cli("even-search", "--size", "20", "--bound", "300", "--work-limit", "500000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert peak < 2_000_000
        assert capsys.readouterr().err.startswith(
            "work limit: 601 of 601 shards still pending; "
            "shard -300 needs more than the 500000 nodes left (limit 500000)\n"
        )

    def test_bound_beyond_machine_integers_exits_3(self, capsys):
        bound = 10**20
        code, out = run_cli(
            "enumerate", "--gen", "z", "--size", "4", "--bound", str(bound), "--work-limit", "1000"
        )
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert f"each shard needs {2 * bound + 1} or more nodes, and the limit (1000) pays for at most 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["enumerate", "--gen", "z"], ["even-search"]], ids=["enumerate", "even-search"]
    )
    def test_size_past_the_walk_depth_exits_3(self, argv, capsys):
        code, out = run_cli(*argv, "--size", "20000", "--bound", "1", "--work-limit", "1000")
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert "refused whatever the limit" in err and "Traceback" not in err


class TestDeepSizes:
    """Sizes deeper than the walker recurses: one coefficient value needs no
    walk, and two or more are refused before walking whatever the limit."""

    @pytest.mark.parametrize(
        "argv, count",
        [
            ("enumerate --gen z --size 2000 --bound 0", 1),
            ("enumerate --gen z:0 --size 2001 --bound 5", 0),
            ("classify --gen z --min-size 1199 --max-size 1200 --bound 0", 0),
            ("even-search --size 2000 --bound 0", 0),
        ],
        ids=["enumerate", "zero-generator", "classify", "even-search"],
    )
    def test_one_value_is_solved_without_a_walk(self, argv, count):
        code, out = run_cli(*argv.split())
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == count
        if count:  # M(0)**2 = -Id: the zero tuple of size 2000 has sign +1
            (item,) = payload["items"]
            assert item["coeffs"] == [0] * 2000 and item["sign"] == 1

    @pytest.mark.parametrize("gen", ["z", "z:0"])
    def test_a_zero_tuple_expands_without_its_repeats(self, gen):
        # the zero tuple of size 4000 has one distinct rotation: its orbit is
        # built from 2 tuples, not from 8000 of 4000 entries (some 256 MB)
        tracemalloc.start()
        try:
            code, out = run_cli("enumerate", "--gen", gen, "--size", "4000", "--bound", "0",
                                "--work-limit", "5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["items"][0]["coeffs"] == [0] * 4000
        assert peak < 3_000_000

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--gen", "z+nonneg", "--size", "1100", "--bound", "1"],
            ["enumerate", "--gen", "sqrt:2", "--size", "1100", "--bound", "1", "--canonical-only"],
            ["even-search", "--size", "1100", "--bound", "1"],
        ],
        ids=["enumerate", "canonical-only", "even-search"],
    )
    def test_two_values_are_refused_under_any_limit(self, argv, capsys):
        code, out = run_cli(*argv, "--work-limit", str(10 ** 600))
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert "refused whatever the limit" in err and "Traceback" not in err

    def test_a_refused_sweep_writes_no_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        code, out = run_cli("even-search", "--size", "1100", "--bound", "1",
                            "--work-limit", str(10 ** 600), "--checkpoint", str(path))
        assert code == 3 and out == "" and not path.exists()
        assert "no checkpoint path given" not in capsys.readouterr().err

    def test_a_limit_past_the_machine_word_sweeps_every_shard(self):
        code, out = run_cli("even-search", "--size", "8", "--bound", "2", "--work-limit", str(10 ** 30))
        assert code == 0
        _, want = run_cli("even-search", "--size", "8", "--bound", "2")
        assert json.loads(out)["items"] == json.loads(want)["items"]


_COMMANDS = (
    "verify", "enumerate", "classify", "decompose", "phi", "rescale", "triangulate",
    "even-search", "selftest",
)


# sha256 of json.dumps([exit code, stdout, stderr]) at COLUMNS=80, per
# Python version, as argparse's wording and wrapping differ between them:
# 3.10, 3.11 and 3.12 print the same bytes, and 3.13 differs on the entries
# it overrides
_HELP_UP_TO_312 = {
    "": "72beaee093a001d7af6f412870ddde24c72d239316ff881523bde94ec0b1e322",
    "--help": "1580a6db239e2d5608c10632ce5de02fd3b3321237a6b5ca12915979dda7f7ee",
    "nope": "ceff5799c810002779c7c2f409a8dc14d48e3bd6e8265ba88d714d5cda67b052",
    "verify --help": "02471c894ffb0dedf4ee3c95256bab6c8f55bd54155188406b1c5fcbeed93d05",
    "verify --no-such-flag": "2d5b0e3e2925bf387d25d90f60effd1286a4af661ef0ad7b717ea05b19ab3acd",
    "enumerate --help": "7e090bb12cbe2a9f7ecda5bf2340ceea42f49e795ed30ffcbe53433c3628b375",
    "enumerate --no-such-flag": "bc6edac5bdecafdc6fef7e52b1fb4f6a57b6e04b991270b58ec5aceed0b85443",
    "classify --help": "2225fec47fcd68ed02ac31128789628fcd1aa0b3535dc6ed59ae7117f31817c3",
    "classify --no-such-flag": "080e4cfed5ee5eef426bc63d449e331bd7fa69515db49efe7a231a79de26dc09",
    "decompose --help": "31c85033c7c936c70f6ca5bc8f43fe67d3e1e5ca6fe2fcc09c9389dfa4c92f24",
    "decompose --no-such-flag": "649abf594300fe6b51ae40ab5cbd1606f554885e9a18291d0f3e3094c178038e",
    "phi --help": "159bcf740899605978c9fb7b3b544d8239266f014b9f3e10ff873d0ddf70154e",
    "phi --no-such-flag": "11ee9998db88b8126ffd3c247a8dbc513ed755f4fbfd6b351d13def62eda8974",
    "rescale --help": "5d57aea310b35b125c24df52ea0b89335080d79052f9ac91c0f183e50cf78b08",
    "rescale --no-such-flag": "421fc1d5f2877a475925a20570b00959309611c217fdd2a00ef13d636ce0d6ad",
    "triangulate --help": "ecc93e6677f4b96d79bec2ae34d8d9888973243fe29f7688289592f773498341",
    "triangulate --no-such-flag": "438314362a69f4b798f7c805faa963efd171517bc2b31e7a64cb7b5e4d90ab67",
    "even-search --help": "b6793264c556911e966f4d45ec3d5652d5965a1f345e59026845d856a7ae8ecc",
    "even-search --no-such-flag": "5f10070868ac63589f91ab8dc7c693c93205b1dffc60ea5ff6d5ebef739bb533",
    "selftest --help": "9f4efab00c8611bce527c5e7c0dde0f3001153cb08678e134dd71ad97052bf48",
    "selftest --no-such-flag": "fd8527d04214d0af371e2d66547567e722ce375c1bd2fe26f559cb4e0ebcd712",
}
_PINNED_HELP = {
    (3, 10): _HELP_UP_TO_312,
    (3, 11): _HELP_UP_TO_312,
    (3, 12): _HELP_UP_TO_312,
    (3, 13): {
        **_HELP_UP_TO_312,
        "": "e4f58fadf700bd29fde460ba4b40c535d9ffbe4d0bb4319f5e21fcf2c364b968",
        "--help": "fee49264ab24f85b9dd14bee67061ba316f2333d64bc393ba9bcb78a6a13bb3c",
        "nope": "3c130ebdc6157fb822c8b4ceefcdd488c0fc59a282a2715e58cfea8fd73e3ddc",
        "verify --help": "fa4cde03899c599ae4e4f0060a287709b830587f5e5424453ed25503322584bd",
        "verify --no-such-flag": "6d6747e71d477df627c4469545a371b9c930e6b3d0b14bd31270f707043a59fd",
        "enumerate --help": "327bbe1113e5e22cbcf45c50584f51e79872840fccd1512302fad0f1754150b6",
        "enumerate --no-such-flag": "530cb28b8f4bbb41b817cff826b8895198a5310868b307740d50ae9c2aacb523",
        "classify --help": "a0d02ac7c3309a8c7bb527812ac17091e240fd4c6d44746f0c3e36c7d39a78b9",
        "classify --no-such-flag": "ec5480b34e12df9fd55bf8d80ea32396af9a1e23f80064a3bf115319ec6c6682",
        "phi --help": "e522f9c557d66b3e190b411b30913d594696103541bfeb889eb901a9d5d6d898",
        "phi --no-such-flag": "8026cd86f90aba749e38a5d2d233b3593e8118b515b111d1a5f4d4c779c06aec",
        "selftest --no-such-flag": "76025c9591006dce159fc5c6f67d8a00f6180f7c80eb445c4a43e95a9a4e6401",
    },
}


class TestLeanParser:
    """main gives arguments only to the subcommand its first word names; its
    help and usage errors must read exactly as the full parser's."""

    @pytest.mark.parametrize(
        "argv",
        [["--help"], [], ["no-such-command"], ["--gen", "z"]]
        + [[name, flag] for name in _COMMANDS for flag in ("--help", "--no-such-flag")],
        ids=" ".join,
    )
    def test_help_and_usage_errors_match_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        code = main(argv, out=io.StringIO())
        lean = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (code, lean.out, lean.err) == (exc.value.code, full.out, full.err)
        if "--help" in argv:
            prog = "quiddity" if argv[0] == "--help" else f"quiddity {argv[0]}"
            assert code == 0 and lean.out.startswith(f"usage: {prog} ")
        else:
            assert code == 2 and lean.err

    @pytest.mark.parametrize(
        "argv", sorted(_PINNED_HELP[(3, 11)]), ids=lambda argv: argv or "(no arguments)"
    )
    def test_help_and_usage_text_is_pinned(self, argv, capsys, monkeypatch):
        pins = _PINNED_HELP.get(sys.version_info[:2])
        if pins is None:
            pytest.skip(f"no help digests recorded for Python {sys.version_info[:2]}")
        monkeypatch.setenv("COLUMNS", "80")
        code = main(argv.split(), out=io.StringIO())
        got = capsys.readouterr()
        assert hashlib.sha256(json.dumps([code, got.out, got.err]).encode()).hexdigest() == pins[argv]

    def test_every_subcommand_is_covered(self):
        parser = cli.build_parser()
        (action,) = [a for a in parser._actions if a.dest == "command"]
        assert tuple(action.choices) == _COMMANDS


class TestHelpAndErrors:
    def test_help_exits_zero(self):
        code, _, _ = run_cli_subprocess("--help")
        assert code == 0

    def test_work_limit_env_var_sets_default(self):
        code, _, _ = run_cli_subprocess(
            "enumerate", "--gen", "z", "--size", "8", "--bound", "4", QUIDDITY_WORK_LIMIT="10"
        )
        assert code == 3

    def test_malformed_work_limit_env_var_is_usage_error(self):
        code, out, err = run_cli_subprocess(
            "enumerate", "--gen", "z", "--size", "4", "--bound", "2", QUIDDITY_WORK_LIMIT="abc"
        )
        assert code == 2 and out == ""
        assert "work-limit" in err

    def test_negative_work_limit_is_usage_error(self, capsys):
        code, out = run_cli(
            "enumerate", "--gen", "z", "--size", "4", "--bound", "2", "--work-limit", "-5"
        )
        assert code == 2 and out == ""
        assert "error: argument --work-limit" in capsys.readouterr().err
        code, _ = run_cli(
            "enumerate", "--gen", "z", "--size", "4", "--bound", "2", "--work-limit", "0"
        )
        assert code == 3

    def test_negative_work_limit_env_var_is_usage_error(self):
        code, out, err = run_cli_subprocess(
            "enumerate", "--gen", "z", "--size", "4", "--bound", "2", QUIDDITY_WORK_LIMIT="-5"
        )
        assert code == 2 and out == ""
        assert "error: argument --work-limit" in err

    def test_worker_count_below_one_is_usage_error(self):
        for workers in ("0", "-3"):
            code, out = run_cli(
                "enumerate", "--gen", "z", "--size", "4", "--bound", "2", "--workers", workers
            )
            assert code == 2 and out == ""

    def test_missing_subcommand_is_usage_error(self):
        code, _, _ = run_cli_subprocess()
        assert code == 2

    def test_bad_tuple_json(self, capsys):
        code, out = run_cli("verify", "--gen", "z", "--tuple", "[1,")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: --tuple is not JSON: Expecting value")

    def test_deeply_nested_tuple_is_usage_error(self, capsys):
        code, out = run_cli("verify", "--gen", "z", "--tuple", "[" * 100_000)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error:")


def test_selftest_quick_passes():
    code, out = run_cli("selftest")
    assert code == 0, out
    assert "probes passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "gen, probe",
    [("isqrt:1", "even-irreducibility-link"), ("isqrt:2", "sign-map-irreducibility[k=2]")],
)
def test_selftest_names_a_planted_transport_counterexample(gen, probe, monkeypatch):
    gen = GeneratorSpec.from_string(gen)
    source = Quiddity(gen, (0, 1, 0, -1)).canonical().coeffs
    real = audits.is_irreducible
    monkeypatch.setattr(
        audits, "is_irreducible", lambda q: real(q) != (q.gen == gen and q.coeffs == source)
    )
    code, out = run_cli("selftest")
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith(f"{probe}: ")]
    assert line.startswith(f"{probe}: FAIL") and f"{source} -> " in line
