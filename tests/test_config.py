import json
import re
from pathlib import Path

import pytest

from jobfraud.config import RunConfig, TrainSection, config_from_dict
from jobfraud.errors import UsageError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_train_section_checks_at_load():
    with pytest.raises(UsageError, match="'train.patience' must be smaller than max_epochs"):
        config_from_dict({"train": {"patience": 25, "max_epochs": 25}})
    with pytest.raises(UsageError, match="'train.batch_size' must be positive"):
        config_from_dict({"train": {"batch_size": 0}})
    with pytest.raises(UsageError, match="'train.beta2' must lie in"):
        config_from_dict({"train": {"beta2": 1.0}})
    with pytest.raises(UsageError, match="'train.learning_rate' must be positive, got nan"):
        config_from_dict(json.loads('{"train": {"learning_rate": NaN}}'))
    with pytest.raises(ValueError):  # the same checks hold for a section built in code
        TrainSection(patience=25, max_epochs=25)


def test_int_is_accepted_for_float():
    assert config_from_dict({"threshold": 1, "train": {"learning_rate": 1}}).threshold == 1


def test_readme_documents_the_default_config():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Configuration"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == RunConfig().to_dict()
