"""SARIF output: structure validates against the 2.1.0 schema.

The full OASIS schema is not vendored; this test validates against a
faithful subset covering every object repro-lint emits — the required
properties, types and enums GitHub code scanning actually checks
(sarif-2.1.0.json: sarifLog, run, tool, reportingDescriptor, result,
physicalLocation, region).  Unknown properties are rejected at every
level we emit, so drift in the reporter fails here first.
"""

from __future__ import annotations

import json

import jsonschema
import pytest

from repro.analysis.engine import lint_sources
from repro.analysis.reporters import render_sarif
from repro.analysis.source import SourceFile

# Subset of https://json.schemastore.org/sarif-2.1.0.json restricted to
# what the reporter emits.
SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "additionalProperties": False,
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "additionalProperties": False,
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "additionalProperties": False,
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "additionalProperties": False,
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "$ref": "#/definitions/message"
                                                },
                                                "fullDescription": {
                                                    "$ref": "#/definitions/message"
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "additionalProperties": False,
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {"$ref": "#/definitions/message"},
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "additionalProperties": False,
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "additionalProperties": False,
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "additionalProperties": False,
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            },
                                                            "uriBaseId": {
                                                                "type": "string"
                                                            },
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "additionalProperties": False,
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
    "definitions": {
        "message": {
            "type": "object",
            "required": ["text"],
            "properties": {"text": {"type": "string"}},
        }
    },
}


def _sarif_for(snippets: dict[str, str]) -> dict:
    sources = [
        SourceFile.from_text(text, path) for path, text in snippets.items()
    ]
    return json.loads(render_sarif(lint_sources(sources)))


def test_sarif_with_findings_validates():
    doc = _sarif_for(
        {
            "src/repro/workloads/gen.py": (
                "import random\nflag = 1.0 == 2.0\n"
            )
        }
    )
    jsonschema.validate(doc, SARIF_SCHEMA)
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"R001", "R002"}


def test_sarif_clean_run_validates_with_empty_results():
    doc = _sarif_for({"src/repro/workloads/gen.py": "x = 1\n"})
    jsonschema.validate(doc, SARIF_SCHEMA)
    assert doc["runs"][0]["results"] == []
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert rule_ids == [f"R{i:03d}" for i in range(1, 11)]


def test_sarif_columns_are_one_based():
    doc = _sarif_for({"src/repro/workloads/gen.py": "import random\n"})
    region = doc["runs"][0]["results"][0]["locations"][0][
        "physicalLocation"
    ]["region"]
    assert region["startLine"] == 1
    assert region["startColumn"] == 1  # engine col 0 -> SARIF col 1


def test_sarif_rule_index_points_at_metadata():
    doc = _sarif_for({"src/repro/workloads/gen.py": "import random\n"})
    run = doc["runs"][0]
    for result in run["results"]:
        meta = run["tool"]["driver"]["rules"][result["ruleIndex"]]
        assert meta["id"] == result["ruleId"]


def test_invalid_sarif_is_rejected_by_the_schema():
    # Control: the schema has teeth.
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"version": "2.1.0"}, SARIF_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(
            {
                "version": "2.1.0",
                "runs": [{"tool": {"driver": {}}, "results": []}],
            },
            SARIF_SCHEMA,
        )
