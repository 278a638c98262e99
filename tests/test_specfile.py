"""Tests for the YAML system-spec format."""

from importlib import resources

import numpy as np
import pytest
import yaml

from tpds import specfile
from tpds.errors import SpecFileError

MINIMAL_LINEAR = """
meta: {name: demo, n: 2, interval: [0.0, 1.0]}
linear:
  segments:
    - t_start: 0.0
      t_end: 1.0
      matrix:
        - [0, "sin(t)"]
        - [1, 0]
"""

MINIMAL_NONLINEAR = """
meta: {name: nl, n: 2, period: 1.0}
nonlinear:
  rhs: ["-x1 + u", "-x2"]
  input: "sin(t)"
"""


def test_shipped_inventory():
    names = specfile.shipped_names()
    for expected in ("switched", "schwarz3", "cosh2", "sinusoidal2", "takac", "entrain_demo"):
        assert expected in names


@pytest.mark.parametrize("name", ["switched", "schwarz3", "cosh2", "sinusoidal2", "takac", "entrain_demo"])
def test_shipped_round_trip(name):
    spec = specfile.shipped(name)
    again = specfile.loads(specfile.dumps(spec))
    assert specfile.to_dict(spec) == specfile.to_dict(again)


def test_minimal_linear():
    spec = specfile.loads(MINIMAL_LINEAR)
    assert spec.kind == "linear"
    A = spec.system.matrix_at(0.5)
    assert A[0, 1] == pytest.approx(np.sin(0.5))
    assert A[1, 0] == 1.0


def test_minimal_nonlinear():
    spec = specfile.loads(MINIMAL_NONLINEAR)
    assert spec.kind == "nonlinear"
    assert spec.system.period == 1.0
    assert spec.system.f(np.pi / 2, [0.0, 1.0])[0] == pytest.approx(1.0)


def test_file_round_trip(tmp_path):
    spec = specfile.shipped("takac")
    path = tmp_path / "takac.spec"
    specfile.save(spec, path)
    again = specfile.load(path)
    assert specfile.to_dict(spec) == specfile.to_dict(again)


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty document
        "meta: {n: 2}",  # no system section
        MINIMAL_LINEAR + "nonlinear:\n  rhs: ['0', '0']\n",  # both sections
        "linear:\n  segments: []\n",  # missing meta
        MINIMAL_LINEAR.replace('[1, 0]', '[1, 0, 0]'),  # row length
        MINIMAL_LINEAR.replace('"sin(t)"', '"sin(t"'),  # expression syntax
        MINIMAL_LINEAR.replace('"sin(t)"', '"x1"'),  # state var in linear entry
        MINIMAL_NONLINEAR.replace('  input: "sin(t)"\n', ""),  # u unbound
        MINIMAL_NONLINEAR.replace('"-x2"', '"-x3"'),  # state index out of range
        MINIMAL_LINEAR.replace('[1, 0]', '[1, .nan]'),  # nan entry
        MINIMAL_LINEAR.replace('[1, 0]', '[-.inf, 0]'),  # infinite entry
        MINIMAL_NONLINEAR.replace('"-x2"', '.inf'),  # infinite rhs
        "meta: {n: 2, interval: [0, 1]}\nlinear: 5\n",  # linear section not a mapping
        "meta: {n: 2, interval: [0, 1]}\nlinear:\n  segments: [5]\n",  # segment not a mapping
        "meta: {n: 2}\nnonlinear: [1]\n",  # nonlinear section not a mapping
        MINIMAL_LINEAR.replace("    - t_start: 0.0\n      t_end", "    - t_end"),  # no t_start
        MINIMAL_LINEAR.replace("n: 2", "n: abc"),  # n not a number
        MINIMAL_LINEAR.replace("interval: [0.0, 1.0]", "interval: [0.0, 1.0], period: abc"),
        MINIMAL_LINEAR.replace("[0.0, 1.0]", "[0.0, 0.5, 1.0]"),  # three-number interval
        MINIMAL_NONLINEAR + "  domain_box: [[0], [0, 1]]\n",  # one-number box entry
        MINIMAL_LINEAR.replace("t_start: 0.0", "t_start: .nan"),  # nan segment start
        MINIMAL_NONLINEAR.replace("period: 1.0", "period: .nan"),  # nan nonlinear period
        MINIMAL_NONLINEAR.replace("period: 1.0", "period: -1.0"),  # negative nonlinear period
    ],
)
def test_malformed_specs(text):
    with pytest.raises(SpecFileError):
        specfile.loads(text)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="pyyaml was built without libyaml")
@pytest.mark.parametrize("name", specfile.shipped_names())
def test_libyaml_gives_the_pure_python_document(name):
    # repr tells 1 from 1.0, which == does not
    text = (resources.files("tpds") / "specs" / f"{name}.spec").read_text()
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize("text", ["meta: [1", "meta: {n: 2}\n---\nmeta: {n: 3}", "meta: \x00", "meta: \ud800"])
def test_malformed_yaml_is_a_spec_file_error(text):
    # libyaml encodes the text as UTF-8 first, and a lone surrogate raised
    # a bare UnicodeEncodeError there
    with pytest.raises(SpecFileError, match="^invalid YAML: "):
        specfile.loads(text)


def test_unknown_shipped_name():
    with pytest.raises(SpecFileError):
        specfile.shipped("nonexistent")
