"""Config loading: schema pointers, eager parsing, preset integrity."""

import copy
import json

import numpy as np
import pytest

from leafquant.scenarios import (DEFAULT_TOLERANCES, ScenarioError,
                                 load_preset, load_scenario, parse_scenario,
                                 preset_names, preset_text)


def base_doc():
    return {
        "dims": {"m": 1, "n": 1},
        "connection": {"lambda": [["1"]]},
        "path": {"kind": "closed_form", "components": ["0.2*sin(t)"],
                 "span": [0.0, 2.0]},
        "hamiltonian": [{"index": [1, 1], "coeff": "0.5"}],
        "grid": {"N": 32, "L": 6.0},
        "integrator": {"steps": 16},
        "initial": {"center": 0.1, "width": 1.0, "kick": 0.0},
    }


def test_minimal_config_parses():
    cfg = parse_scenario(base_doc())
    assert cfg.bundle.n_parameters == 1 and cfg.bundle.n_fiber == 1
    assert cfg.grid.shape == (32,)
    assert cfg.steps == 16
    assert cfg.outputs == ("expectations", "phases")
    # defaults fill in everything not specified
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.unitary_steps == 16
    dh = cfg.driven()
    assert dh.span == (0.0, 2.0)


def test_missing_grid_n_pointer():
    doc = base_doc()
    del doc["grid"]["N"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/grid/N"
    assert "/grid/N" in str(err.value)


def test_missing_required_top_level():
    doc = base_doc()
    del doc["integrator"]
    with pytest.raises(ScenarioError, match="/integrator"):
        parse_scenario(doc)


def test_unknown_variable_names_field():
    doc = base_doc()
    doc["hamiltonian"][0]["coeff"] = "q3 + 1"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "q3" in str(err.value)
    assert err.value.pointer == "/hamiltonian/0/coeff"


def test_parse_error_carries_offset():
    doc = base_doc()
    doc["connection"]["lambda"][0][0] = "1 + (q1"
    with pytest.raises(ScenarioError, match="offset"):
        parse_scenario(doc)


def test_schema_type_violation_pointer():
    doc = base_doc()
    doc["dims"]["m"] = "two"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/dims/m"


def test_unknown_top_level_key_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ScenarioError, match="schema violation"):
        parse_scenario(doc)


def test_bad_output_kind_rejected():
    doc = base_doc()
    doc["outputs"] = ["expectations", "plots"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer.startswith("/outputs")


def test_lambda_shape_must_match_dims():
    doc = base_doc()
    doc["connection"]["lambda"] = [["1"], ["0"]]
    with pytest.raises(ScenarioError, match="1 rows"):
        parse_scenario(doc)
    doc = base_doc()
    doc["dims"]["m"] = 2
    with pytest.raises(ScenarioError, match="2 expressions"):
        parse_scenario(doc)


def test_path_component_count_checked():
    doc = base_doc()
    doc["dims"]["m"] = 2
    doc["connection"]["lambda"] = [["1", "0"]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/path/components"


def test_closed_form_needs_span():
    doc = base_doc()
    del doc["path"]["span"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/path/span"


def test_sampled_path():
    doc = base_doc()
    ts = np.linspace(0.0, 2.0, 33)
    doc["path"] = {"kind": "samples", "times": list(ts),
                   "values": [[0.2 * float(np.sin(t))] for t in ts]}
    cfg = parse_scenario(doc)
    assert cfg.path.n_parameters == 1
    assert abs(cfg.path.value(1.0)[0] - 0.2 * np.sin(1.0)) < 1e-3


def test_sampled_path_requires_tables():
    doc = base_doc()
    doc["path"] = {"kind": "samples"}
    with pytest.raises(ScenarioError, match="times"):
        parse_scenario(doc)


def test_momentum_index_bounded_by_fiber_dim():
    doc = base_doc()
    doc["hamiltonian"].append({"index": [2], "coeff": "1"})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/hamiltonian/1/index"


def test_grid_axes_must_match_fiber_dim():
    doc = base_doc()
    doc["grid"]["N"] = [16, 16]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/grid/N"


def test_odd_grid_refused_at_grid():
    for n in (33, [16, 15]):
        doc = base_doc()
        doc["grid"]["N"] = n
        if isinstance(n, list):
            doc["dims"]["n"] = 2
            doc["connection"]["lambda"] = [["1"], ["0"]]
        with pytest.raises(ScenarioError, match="even number of points") as err:
            parse_scenario(doc)
        assert err.value.pointer == "/grid"


def test_initial_vector_length_checked():
    doc = base_doc()
    doc["initial"]["center"] = [0.1, 0.2]
    with pytest.raises(ScenarioError, match="1 or 1 numbers"):
        parse_scenario(doc)


def test_width_must_be_positive():
    doc = base_doc()
    doc["initial"]["width"] = -1.0
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario(doc)


def test_cover_parsing_and_validation():
    doc = base_doc()
    doc["cover"] = [[[-4.0, 8.0]], [[4.0, 8.0]]]
    cfg = parse_scenario(doc)
    assert cfg.cover is not None and cfg.cover.size == 2
    doc["cover"] = [[[-4.0, -1.0]]]
    with pytest.raises(ScenarioError, match="/cover"):
        parse_scenario(doc)


def test_warp_validated_eagerly():
    doc = base_doc()
    doc["reparam"] = {"warp": "t + 1"}  # does not fix the endpoints
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == "/reparam/warp"

    doc["reparam"] = {"warp": "t + 0.25*t*(2 - t)"}
    cfg = parse_scenario(doc)
    assert cfg.warp is not None


def closed_two_parameter_doc():
    doc = base_doc()
    doc["dims"]["m"] = 2
    doc["connection"]["lambda"] = [["1", "1"]]
    doc["path"]["components"] = ["1/t", "0.5*sin(t)"]
    doc["path"]["closed"] = True
    return doc


@pytest.mark.parametrize("warp", [None, "1/t", "sqrt(t - 1)"])
def test_evaluation_errors_carry_a_pointer(warp):
    # the closed-path endpoint check and the warp checks evaluate their
    # trees at the span's ends, where these are not finite
    if warp is None:
        doc, pointer = closed_two_parameter_doc(), "/path"
    else:
        doc, pointer = base_doc(), "/reparam/warp"
        doc["reparam"] = {"warp": warp}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.pointer == pointer
    assert str(err.value).startswith(f"{pointer}: ")


@pytest.mark.parametrize("field,text,pointer", [
    ('"L": 6.0', '"L": Infinity', "/grid/L"),
    ('"center": 0.1', '"center": NaN', "/initial/center"),
    ('"steps": 16}', '"steps": 16}, "tolerances": {"unitarity": NaN}',
     "/tolerances/unitarity"),
    ('"steps": 16}', '"steps": 16}, "cover": [[[0.0, NaN]]]',
     "/cover/0/0/1"),
])
def test_non_finite_numbers_are_rejected(field, text, pointer):
    # Python's json reads NaN and Infinity; each is rejected where it
    # stands, before the schema check
    source = json.dumps(base_doc())
    assert source.count(field) == 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.loads(source.replace(field, text)))
    assert err.value.pointer == pointer
    assert f"at {pointer}" in str(err.value)


def test_non_finite_numbers_are_rejected_in_built_documents():
    doc = base_doc()
    doc["initial"]["center"] = [float("-inf")]
    with pytest.raises(ScenarioError, match="non-finite number") as err:
        parse_scenario(doc)
    assert err.value.pointer == "/initial/center/0"


def test_tolerance_overrides_merge_with_defaults():
    doc = base_doc()
    doc["tolerances"] = {"unitarity": 1e-8, "custom_gate": 0.5}
    cfg = parse_scenario(doc)
    assert cfg.tolerances["unitarity"] == 1e-8
    assert cfg.tolerances["custom_gate"] == 0.5
    assert cfg.tolerances["ehrenfest"] == DEFAULT_TOLERANCES["ehrenfest"]


def test_ordering_enum_enforced():
    # symmetric is the one factor ordering: one-sided orderings give
    # non-Hermitian generators and are rejected before any numerics
    doc = base_doc()
    doc["integrator"]["ordering"] = "symmetric"
    parse_scenario(doc)
    for value in ("sorted", "left", "right"):
        doc["integrator"]["ordering"] = value
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.pointer == "/integrator/ordering"


def test_load_scenario_from_file(tmp_path):
    target = tmp_path / "case.json"
    target.write_text(json.dumps(base_doc()))
    cfg = load_scenario(target)
    assert cfg.name == "case"


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="no such scenario"):
        load_scenario(tmp_path / "absent.json")


def test_load_scenario_invalid_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(target)


def test_all_presets_load():
    names = preset_names()
    assert names == sorted(names)
    assert set(names) == {"flat_loop", "nonabelian_loop",
                          "driven_oscillator", "reparam_pair",
                          "quartic_decomposition"}
    for name in names:
        cfg = load_preset(name)
        assert cfg.name == name
        assert cfg.driven() is not None


def test_driven_oscillator_preset_shape():
    cfg = load_preset("driven_oscillator")
    assert cfg.bundle.n_parameters == 1 and cfg.bundle.n_fiber == 1
    assert cfg.grid.shape == (512,)
    assert cfg.steps == 10000
    assert cfg.path.span == (0.0, 10.0)
    assert "ehrenfest" in cfg.outputs
    assert cfg.tolerances["ehrenfest"] == 1e-3


def test_preset_text_round_trips():
    text = preset_text("flat_loop")
    doc = json.loads(text)
    cfg = parse_scenario(copy.deepcopy(doc), name="flat_loop")
    assert cfg.path.closed
    with pytest.raises(ScenarioError, match="unknown preset"):
        preset_text("missing_preset")
