"""The registry text format: the shipped catalog and the records for
identities, chains and families."""

from __future__ import annotations

import re
from importlib.resources import files

import pytest

from qdissect.congruences import (
    AffineIndex,
    CongruenceFamily,
    Term,
    build_families,
)
from qdissect.identities import (
    DilateBack,
    Extract,
    IdentityCase,
    ProofChain,
    ReduceMod,
    Stage,
)
from qdissect.oracle import SourceSpec
from qdissect.qexpr import EtaF, Pow, parse_sexpr
from qdissect.registry import Registry, parse_registry, registry

SHIPPED = files("qdissect").joinpath("catalog.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def reg():
    return registry()


class TestShippedCatalog:
    def test_counts(self, reg):
        assert (len(reg.cases), len(reg.chains), len(reg.families)) == (20, 12, 25)

    def test_build_families_reads_the_catalog(self, reg):
        assert build_families() == reg.families

    def test_one_immutable_parse(self, reg):
        assert registry() is registry() is reg
        assert all(type(field) is tuple for field in reg)
        assert Registry() == ((), (), ())

    def test_recorded_probes_survive(self, reg):
        (case,) = [c for c in reg.cases if c.id == "7.3"]
        assert case.expect == "record"
        assert case.note.startswith("cubic continued-fraction entry")
        (chain,) = [c for c in reg.chains if c.id == "s7cor.odd"]
        (stage,) = chain.stages
        assert (stage.id, stage.expect) == ("7.21", "record")
        fams = {f.id: f for f in reg.families}
        assert fams["7.22"].relation == (
            Term(1, 5, AffineIndex("1", "0"), SourceSpec("regular", 17)),)
        assert fams["s13"].slow and not fams["x1"].slow
        assert fams["s15-unit"].expect == "record"
        assert fams["x1"].k_values == tuple(range(1, 11))

    def test_relations_are_the_terms_their_records_state(self, reg):
        # 'zero' is no term, 'recur C' one term C^m * ref (of the ref= stream,
        # else the family's own), 'three C1 C2' the terms C1 * ref1 + C2 * ref2
        records = [line.split("|") for line in SHIPPED.splitlines()
                   if line.startswith("family ")]
        assert [r[0][len("family "):] for r in records] == [f.id for f in reg.families]
        for fields, fam in zip(records, reg.families):
            word, *constants = fields[5].split()
            maps = [AffineIndex(fields[i], fields[i + 1])
                    for i in range(6, 6 + 2 * len(constants), 2)]
            refs = [SourceSpec("regular", int(f.split()[-1]))
                    for f in fields if f.startswith("ref=regular ")]
            if word == "recur":
                want = (Term(1, int(constants[0]), maps[0], *refs),)
            else:
                want = tuple(Term(int(c), 1, ix) for c, ix in zip(constants, maps))
            assert fam.relation == want, fam.id
        terms = {fam.id: fam.relation for fam in reg.families}
        assert terms["7.22"][0].source == SourceSpec("regular", 17)
        assert [t.source for ts in terms.values() for t in ts if t.source] == [
            SourceSpec("regular", 17)]
        assert terms["ak2"] == ()
        assert terms["w.11"] == (Term(5, 1, AffineIndex("1", "0")),
                                 Term(6, 1, AffineIndex("4", "1")))

    def test_named_atoms_are_written(self):
        assert "(pow u -1)" in SHIPPED and " S)" in SHIPPED
        assert "(poch" not in SHIPPED


class TestRecords:
    def test_plain_case_line_keeps_its_meaning(self):
        (case,) = parse_registry("a|mod7|40|(eta 7)|(pow (eta 1) 7)\n").cases
        assert case == IdentityCase("a", "user", EtaF(7), Pow(EtaF(1), 7),
                                    modulus=7, default_order=40)

    def test_case_key_values(self):
        text = "a|exact|40|(eta 1)|(eta 1)|note=x = y; z|expect=record|section=s9\n"
        (case,) = parse_registry(text).cases
        assert (case.section, case.expect, case.note) == ("s9", "record", "x = y; z")

    def test_chain_record(self, reg):
        text = """
chain c|exact|64|(eta 1)|note=demo
  sub e2
  extract 1 2
  dilate 2
  reduce 11
  assert st.1 (pow (eta 1) 2) record
  assert st.2 S
"""
        (chain,) = parse_registry(text, taken=reg).chains
        assert chain == ProofChain(
            "c", "user", EtaF(1),
            (Stage("st.1", Pow(EtaF(1), 2), (Extract(1, 2), DilateBack(2), ReduceMod(11)),
                   ("e2",), expect="record"),
             Stage("st.2", parse_sexpr("S"))),
            base_order=64, note="demo",
        )

    def test_chain_cites_builtin_and_earlier_identities(self, reg):
        # a stage may cite a built-in identity or one defined above it in the file
        text = ("mine|mod17|40|(eta 17)|(pow (eta 1) 17)\n"
                "chain c|mod17|1024|(mul (pow (eta 1) -1) (eta 17))\n"
                "  sub k1@17\n  sub mine\n  assert st (pow (eta 1) 16)\n")
        (chain,) = parse_registry(text, taken=reg).chains
        assert [stage.justified_by for stage in chain.stages] == [("k1@17", "mine")]

    def test_family_record(self):
        text = ("family f|bipartite 81 17|mod17|81|50|recur 5|1|0|ref=regular 17"
                "|m=1|n_max=9|slow=true|expect=record|note=a note\n"
                "family g|regular 17|mod17|4 ** 8|2|three 2 13|4|2|1|0\n"
                "family h|bipartite 2 8|mod11|88|8 * k + 7|zero|k=1,2\n")
        f, g, h = parse_registry(text).families
        assert f == CongruenceFamily(
            "f", "user", 17, SourceSpec("bipartite", 81, 17), AffineIndex("81", "50"),
            (Term(1, 5, AffineIndex("1", "0"), SourceSpec("regular", 17)),),
            m_values=(1,), default_n_max=9, slow=True, expect="record", note="a note",
        )
        assert g.relation == (Term(2, 1, AffineIndex("4", "2")),
                              Term(13, 1, AffineIndex("1", "0")))
        assert (h.relation, h.k_values, h.default_n_max) == ((), (1, 2), 500)

    def test_each_kind_has_its_own_ids(self, reg):
        # "s8" names a chain and a family; a new kind may reuse an id
        text = ("chain s8x|exact|64|(eta 1)\n  assert st (eta 1)\n"
                "family s8x|regular 17|mod17|1|0|zero\n")
        back = parse_registry(text, taken=reg)
        assert [c.id for c in back.chains] == [f.id for f in back.families] == ["s8x"]

    # one rule for an integer, -?[0-9]+, in expressions, modes, fields and indices
    INTEGER_FORMS = [
        ("a|exact|9|(eta 1_0)|(eta 10)\n", "expected integer, got '1_0'"),
        ("a|exact|9|(eta +3)|(eta 3)\n", "expected integer, got '+3'"),
        ("a|exact|9|(eta \u0663)|(eta 3)\n", "expected integer, got '\u0663'"),
        ("a|exact|9|(q \uff15)|(q 5)\n", "expected integer, got '\uff15'"),
        ("a|mod\u0667|40|(eta 7)|(pow (eta 1) 7)\n", "mode must be 'exact' or 'modM'"),
        ("a|exact|4\u0660|(eta 1)|(eta 1)\n", "order must be an integer"),
        ("family f|regular 17|mod17|0x10|0|zero\n", "0x10 is not allowed"),
        ("family f|regular 17|mod17|1|1_0|zero\n", "1_0 is not allowed"),
    ]

    @pytest.mark.parametrize("text,message", [
        *INTEGER_FORMS,
        ("  sub e2\n", "must follow a chain header"),
        ("a|exact|9|(eta 1)|(eta 1)\n  sub e2\n", "must follow a chain header"),
        ("chain c|exact|64|(eta 1)\n  extract 2 2\n", "0 <= R < S"),
        ("chain c|exact|64|(eta 1)\n  reduce 1\n", "reduce modulus must be >= 2"),
        ("chain c|exact|64|(eta 1)\n  assert st\n", "a chain step is"),
        ("chain c|exact|64|(eta 1)\n  assert st (eta 1) later\n", "trailing tokens"),
        ("chain c|exact|64|(eta 1)\n  jump 3\n", "a chain step is"),
        ("chain c|exact|64\n", "chain ID|MODE|ORDER|START"),
        ("chain c|exact|64|(eta 1)|expect=record\n", "'expect=record' is not key=value"),
        ("chain c|exact|64|(eta 1)\nchain c|exact|64|(eta 1)\n", "chain id 'c'"),
        # a chain must check something, and each step belongs to a stage
        ("chain c|exact|64|(eta 1)\n", "chain c must end in an 'assert' line"),
        ("chain c|exact|64|(eta 1)\n  assert st (eta 1)\n  dilate 2\n",
         "chain c must end in an 'assert' line"),
        ("k1@7|mod7|40|(eta 7)|(pow (eta 1) 7)\nchain c|exact|64|(eta 1)\n"
         "  assert st (eta 1)\n  sub k1@7\n", "chain c must end in an 'assert' line"),
        ("chain c|exact|64|(eta 1)\n  sub no-such-identity\n  assert st (eta 1)\n",
         "sub 'no-such-identity' names no identity"),
        ("chain c|exact|64|(eta 1)\n  assert st (eta 1)\n  assert st (eta 2)\n",
         "stage id 'st' is already defined"),
        ("a b|exact|9|(eta 1)|(eta 1)\n", "contains whitespace"),
        ("a|exact|9|(eta 1)|(eta 1)|note=x|note=y\n", "is not key=value"),
        ("a|exact|9|(eta 1)|(eta 1)|expect=maybe\n", "expect must be"),
        ("a|exact|9|(eta 1)|note=x|(eta 1)\n", "expected ID|MODE|ORDER|LHS|RHS"),
        ("family f|regular 1|mod17|1|0|zero\n", "regularity index must be >= 2"),
        ("family f|regular 17|exact|1|0|zero\n", "mode must be 'modM'"),
        # the fast path builds every family table; its modulus cap is the family's
        ("family f|regular 17|mod100000000|1|0|zero|n_max=5\n",
         "modulus 100000000 exceeds the fast path's cap 67108864"),
        ("family f|regular 17|mod17|1|0|recur 5\n", "RELATION|SCALE|OFFSET"),
        ("family f|regular 17|mod17|1|0|three 5|1|0|1|0\n", "relation must be"),
        ("family f|regular 17|mod17|1|0|zero|ref=regular 5\n", "recur relation only"),
        ("family f|regular 17|mod17|1|m.real|zero\n", "is not allowed"),
        ("family f|regular 17|mod17|1|0|zero|m=1,,2\n", "m or k value"),
        # a repeated value would check one instance twice
        ("family f|regular 17|mod17|1|0|zero|m=0,0\n", "m value 0 is repeated"),
        ("family f|regular 17|mod17|1|0|zero|k=1,1\n", "k value 1 is repeated"),
        ("family f|regular 17|mod17|1|0|zero|slow=yes\n", "slow must be"),
    ])
    def test_bad_record_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=r"^line [0-9]+: .*" + re.escape(message)):
            parse_registry(text)

    @pytest.mark.parametrize("text,message", INTEGER_FORMS)
    def test_bad_integer_names_its_line(self, text, message):
        good = "ok|exact|9|(eta 1)|(eta 1)\n"
        with pytest.raises(ValueError, match=r"^line 2: .*" + re.escape(message)):
            parse_registry(good + text)
