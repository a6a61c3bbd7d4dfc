"""README's configuration table names exactly the fields the config
accepts, section by section, so the documentation cannot drift from
``config.SECTION_FIELDS``; and every hook its target protocol names
exists."""

import re
from pathlib import Path

from treecast.baselines import BaselineModel
from treecast.config import SECTION_FIELDS
from treecast.hypertree import HyperTreeModel
from treecast.targets import KINDS
from treecast.treenet import TreeNetModel

README = Path(__file__).resolve().parent.parent / "README.md"


def config_table() -> dict:
    """{section: [field, ...]} from the table under "### Configuration".

    A row is ``| `section` | cells |``; the fields are the backticked names
    of the cells outside parentheses (inside them are values and notes).
    """
    section = README.read_text().split("### Configuration\n", 1)[1].split("\n#", 1)[0]
    table = {}
    for name, cells in re.findall(r"^\| `(\w+)`\s*\|(.*)\|$", section, flags=re.M):
        table[name] = re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", cells))
    return table


def test_configuration_table_matches_section_fields():
    table = config_table()
    assert set(table) == set(SECTION_FIELDS) | {"ablations"}
    for section, fields in SECTION_FIELDS.items():
        assert table[section] == list(fields), section


def test_target_protocol_names_existing_hooks():
    """Every backticked ``name(`` under "## Adding a target" is an attribute
    of a registered target kind, or of every model family."""
    section = README.read_text().split("## Adding a target\n", 1)[1].split("\n#", 1)[0]
    names = set(re.findall(r"`(\w+)\(", section))
    assert {"bind", "loss", "forecast"} <= names
    models = (HyperTreeModel, TreeNetModel, BaselineModel)
    missing = [name for name in sorted(names)
               if not any(hasattr(kind, name) for kind in KINDS.values())
               and not all(hasattr(model, name) for model in models)]
    assert not missing
