import pytest

from traceval.errors import ParseError, TemplateError
from traceval.lang import parse_model
from traceval.model import build_graph
from traceval.template import (
    Settings,
    parse_bindings,
    parse_settings,
    render,
)

_GATE = "var x : 0..1 init 0;\n[] @go@ -> x'=1;\n"


def _commented(text: str) -> str:
    """A one-variable model whose trailing comment is ``text``."""
    return f"var x : 0..1 init 0; // {text}\n"


def test_render_direct_substitution():
    out = render(_GATE, {"go": "x==0"})
    assert out == "var x : 0..1 init 0;\n[] x==0 -> x'=1;\n"


def test_render_default_false_prunes_state_space():
    open_graph = build_graph(parse_model(render(_GATE, {"go": "x==0"})))
    closed = render(_GATE, {}, Settings(defaults={"go": "false"}))
    closed_graph = build_graph(parse_model(closed))
    assert closed_graph.state_count == 1  # guard false: command unreachable
    assert closed_graph.state_count <= open_graph.state_count


def test_render_unresolved_tag():
    with pytest.raises(TemplateError, match="unresolved tag 'a'"):
        render("@a@")


def test_render_bindings_shadow_parameters_shadow_defaults():
    settings = Settings(parameters={"go": 7}, defaults={"go": "false"})
    template = _commented("@go@")
    assert render(template, {"go": "x==0"}, settings) == _commented("x==0")
    assert render(template, {}, settings) == _commented("7")
    assert render(template, {}, Settings(defaults={"go": "false"})) == _commented("false")


def test_render_single_pass_no_rescan():
    out = render(_commented("@a@"), {"a": "@b@", "b": "nope"})
    assert out == _commented("@b@")


def test_render_escape_doubles():
    assert render(_commented("a@@b@@c")) == _commented("a@b@c")
    assert render(_commented("@@go@@")) == _commented("@go@")  # escapes, not a tag


def test_render_malformed_tag():
    with pytest.raises(TemplateError, match="malformed tag"):
        render("@go")
    with pytest.raises(TemplateError, match="malformed tag"):
        render("@x1@", {"x": "1"})  # digits not allowed in tags


def test_render_idempotent_on_tag_free_text():
    text = _commented("anything at all, even // not a model")
    assert render(text, {"go": "x"}) == text


def test_render_makes_no_parse_model_call(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_model(text)

    monkeypatch.setattr("traceval.lang.parse_model", counting)
    # a module that imported parse_model by name calls its own binding
    monkeypatch.setattr("traceval.template.parse_model", counting, raising=False)
    render(_GATE, {"go": "x==0"})
    assert calls == []


def test_render_returns_text_that_is_not_a_model():
    assert render(_GATE, {"go": "x=="}) == "var x : 0..1 init 0;\n[] x== -> x'=1;\n"


def test_parse_settings_example():
    text = 'parameters:\n  width: 5\ndefaults:\n  turn_left: "false"\n'
    settings = parse_settings(text)
    assert settings.parameters == {"width": 5}
    assert settings.defaults == {"turn_left": "false"}


def test_parse_settings_empty():
    settings = parse_settings("")
    assert settings.parameters == {} and settings.defaults == {}


def test_parse_settings_nesting_too_deep():
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_settings("defaults:\n  a:\n    b: 1\n")


def test_parse_settings_duplicate_key():
    with pytest.raises(ParseError, match="duplicate key"):
        parse_settings("defaults:\n  a: 1\n  a: 2\n")


def test_parse_settings_unknown_section_and_comments():
    with pytest.raises(ParseError, match="unknown section"):
        parse_settings("misc:\n  a: 1\n")
    settings = parse_settings("# leading comment\nparameters:\n  k: 3 # trailing\n")
    assert settings.parameters == {"k": 3}


def test_parse_settings_missing_value():
    with pytest.raises(ParseError, match="missing value"):
        parse_settings("defaults:\n  a:\n")


def test_parse_settings_integer_past_the_digit_limit():
    # int() refuses more than 4300 digits; the value starts at column 8
    with pytest.raises(ParseError, match="integer has too many digits") as err:
        parse_settings("parameters:\n  n:   " + "9" * 5000 + "  # huge\n")
    assert (err.value.line, err.value.col) == (2, 8)


def test_parse_bindings_and_validation():
    assert parse_bindings('{"go": "x==0", "stop": "false"}') == {"go": "x==0", "stop": "false"}
    with pytest.raises(TemplateError, match="JSON object"):
        parse_bindings("[1, 2]")
    with pytest.raises(TemplateError, match="must be a string"):
        parse_bindings('{"go": 3}')
    with pytest.raises(TemplateError, match="tag identifier"):
        parse_bindings('{"go2": "x"}')
    # json.loads raises a bare ValueError on an integer past int()'s limit
    with pytest.raises(TemplateError, match="not valid JSON"):
        parse_bindings('{"go": ' + "9" * 5000 + "}")


def test_sample_template_pipeline(samples_dir):
    template = (samples_dir / "gate.gcmt").read_text()
    bindings = parse_bindings((samples_dir / "gate_bindings.json").read_text())
    settings = parse_settings((samples_dir / "gate_settings.yaml").read_text())
    rendered = render(template, bindings, settings)
    assert build_graph(parse_model(rendered)).state_count == 2
    pruned = render(template, {}, settings)
    assert build_graph(parse_model(pruned)).state_count == 1
