"""The shipped schema is the config contract.

The shipped configurations match it, the package's validator implements every
keyword it uses, and the validator agrees with ``jsonschema`` on every
one-site mutation of a shipped config.  A mutated config either builds or
fails with one ConfigError whose one-line message starts with a JSON path.
"""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest

from safelq import model
from safelq.cli import _load_spec
from safelq.errors import ConfigError

from conftest import CONFIG_DIR

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "safelq"
     / "config_schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

# what model._check implements, and the keywords that only annotate
IMPLEMENTED = {"type", "enum", "required", "properties", "additionalProperties",
               "items", "minItems", "minimum", "exclusiveMinimum", "$ref"}
ANNOTATIONS = {"$schema", "title", "description", "$defs"}
TYPES = {"object", "array", "number", "integer", "boolean", "string"}

# each replaces one leaf or one list of a shipped config
REPLACEMENTS = ["abc", [1, 2], None, {}, True, -1.0, 0]
PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*|\[\d+\])*")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_validates(path):
    jsonschema.validate(json.loads(path.read_text()), SCHEMA)


def test_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def _subschemas(schema: dict):
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schema_uses_only_implemented_keywords():
    # a keyword the validator does not know would be skipped at run time
    for node in _subschemas(SCHEMA):
        assert set(node) <= IMPLEMENTED | ANNOTATIONS, node
        assert node.get("additionalProperties", False) in (True, False)
        if "$ref" in node:
            assert node["$ref"].removeprefix("#/$defs/") in SCHEMA["$defs"]
        assert node.get("type", "object") in TYPES


def _sites(node, path=()):
    """Key paths to every leaf and list below node (objects are walked)."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        if not isinstance(child, dict):
            yield path + (key,)
        yield from _sites(child, path + (key,))


def _text(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


def _parent_exists(config, text: str) -> bool:
    node = config
    for key in re.findall(r"\w+", text)[:-1]:
        node = node[int(key)] if isinstance(node, list) else node.get(key)
        if not isinstance(node, (dict, list)):
            return False
    return True


def _problems(config, site, value, tmp_path) -> list[str]:
    """What is wrong with loading config with value at site, or nothing."""
    cfg = copy.deepcopy(config)
    node = cfg
    for key in site[:-1]:
        node = node[key]
    node[site[-1]] = value
    where = f"{_text(site)} = {value!r}"
    accepted = VALIDATOR.is_valid(cfg)
    try:
        model._check(cfg, SCHEMA, SCHEMA["$defs"])
    except ConfigError:
        if accepted:
            return [f"{where}: the validator rejects what jsonschema accepts"]
    else:
        if not accepted:
            return [f"{where}: the validator accepts what jsonschema rejects"]
    file = tmp_path / "mutant.json"
    file.write_text(json.dumps(cfg))
    try:
        _load_spec(str(file))
    except ConfigError as exc:
        message = str(exc)
    except Exception as exc:                    # the contract forbids these
        return [f"{where}: {type(exc).__name__}: {exc}"]
    else:
        return [] if accepted else [f"{where}: builds against the schema"]
    head = PATH.match(message)
    if "\n" in message or len(message) > 120 or head is None:
        return [f"{where}: message {message!r}"]
    text, mutated = head.group(), _text(site)
    if not accepted and not (mutated.startswith(text)
                             or text.startswith(mutated)):
        return [f"{where}: schema error names {text}"]
    if not _parent_exists(cfg, text):
        return [f"{where}: message names {text}, not in the config"]
    return []


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_one_site_mutations_fail_in_one_named_line(path, tmp_path):
    config = json.loads(path.read_text())
    problems = [problem for site in _sites(config) for value in REPLACEMENTS
                for problem in _problems(config, site, value, tmp_path)]
    assert not problems, "\n".join(problems[:20])
