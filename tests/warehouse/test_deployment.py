"""Deployment API: ``DeploymentConfig`` is the only spelling.

The warehouse constructor takes a deployment and nothing else, so an
unknown keyword fails exactly like any other signature mismatch.
"""

from __future__ import annotations

import pytest

from repro.warehouse import Warehouse

pytestmark = pytest.mark.serving


class TestConstructorShims:
    def test_unknown_keyword_raises_like_a_signature_mismatch(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Warehouse(bogus=1)

    def test_deploy_classmethod_builds_from_overrides(self):
        warehouse = Warehouse.deploy({"workers": 2, "loaders": 3})
        assert warehouse.deployment.workers == 2
        assert warehouse.deployment.loaders == 3
