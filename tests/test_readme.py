"""README's configuration table names exactly the fields the config
accepts, section by section, so the documentation cannot drift from
``config.SECTION_FIELDS``."""

import re
from pathlib import Path

from treecast.config import SECTION_FIELDS

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
