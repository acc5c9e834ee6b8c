import warnings

import numpy as np
import pytest

from jobfraud import ingest, synth

# hypothesis imports this module lazily, while it reports a failing example;
# under `-W error` a DeprecationWarning raised by one of its imports
# (mypy_extensions.TypedDict) would then replace the report with an
# INTERNALERROR. Importing it once here, with that warning ignored, keeps
# the falsifying example in the output.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory):
    """The bundled synthetic postings file (2,000 rows, planted signal)."""
    path = tmp_path_factory.mktemp("data") / "postings.csv"
    synth.write_fixture(path, n_rows=2000, seed=7)
    return path


@pytest.fixture(scope="session")
def fixture_dataset(fixture_csv):
    return ingest.load_dataset(fixture_csv)


@pytest.fixture(scope="session")
def small_csv(tmp_path_factory):
    """A 300-row fixture for fast end-to-end CLI runs."""
    path = tmp_path_factory.mktemp("data") / "small.csv"
    synth.write_fixture(path, n_rows=300, seed=11)
    return path


def make_posting(**overrides):
    base = dict(
        job_id=1, title="Sales Manager", location="US, NY, New York",
        department="", salary_range="", company_profile="We sell things.",
        description="Manage the team.", requirements="Experience.",
        benefits="Insurance.", telecommuting=0, has_company_logo=1,
        has_questions=0, employment_type="Full-time",
        required_experience="Associate", required_education="Bachelor's Degree",
        industry="Retail", function="Sales", fraudulent=0,
    )
    base.update(overrides)
    (posting,) = ingest.postings_from_records(list(base), [[str(v) for v in base.values()]], "test")
    return posting


@pytest.fixture
def toy_separable():
    """20 examples where one token id decides the label."""
    rng = np.random.default_rng(5)
    n, length = 20, 6
    y = np.array([1, 0] * (n // 2))
    ids = np.zeros((n, length), dtype=np.int64)
    for i in range(n):
        ids[i, :3] = 2 if y[i] else 3
    numeric = rng.normal(size=(n, 2)) * 0.1
    return (ids, numeric), y, length
