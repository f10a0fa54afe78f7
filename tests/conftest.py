import pytest

from bvpcont.diagram import RunConfig, run_diagram


@pytest.fixture(scope="session")
def isola_bundle():
    # kappa=2, h=0.25, eps=0: main component plus three isolas
    cfg = RunConfig(kappa=2, h=0.25, eps=0.0, mesh_n=500, lambda_min=-100.0)
    return run_diagram(cfg)
