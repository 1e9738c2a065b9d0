"""Tests for the query catalog."""

import pytest

from repro.query.catalog import Catalog, CatalogError


class _Model:
    def __init__(self, name):
        self.name = name

    def detect(self, frame):  # pragma: no cover - never invoked here
        raise NotImplementedError


class TestRegistration:
    def test_video_registration(self, small_video):
        catalog = Catalog()
        catalog.register_video("v", small_video)
        assert catalog.videos == ["v"]
        assert len(catalog.video("v")) == len(small_video)

    def test_raw_frame_sequence_accepted(self, small_video):
        catalog = Catalog()
        catalog.register_video("v", list(small_video.frames[:3]))
        assert len(catalog.video("v")) == 3

    def test_empty_video_rejected(self):
        catalog = Catalog()
        with pytest.raises(ValueError):
            catalog.register_video("v", [])
        with pytest.raises(ValueError):
            catalog.register_video("", [object()])

    def test_detector_requires_name_and_detect(self):
        catalog = Catalog()
        with pytest.raises(ValueError, match="name"):
            catalog.register_detector(object())

        class Named:
            name = "n"

        with pytest.raises(ValueError, match="detect"):
            catalog.register_detector(Named())


class TestLookups:
    def test_unknown_names_raise_catalog_error(self):
        catalog = Catalog()
        with pytest.raises(CatalogError, match="unknown video"):
            catalog.video("ghost")
        with pytest.raises(CatalogError, match="unknown detector"):
            catalog.detector("ghost")
        with pytest.raises(CatalogError, match="unknown reference"):
            catalog.reference("ghost")

    def test_catalog_error_is_key_error(self):
        with pytest.raises(KeyError):
            Catalog().detector("ghost")

    def test_default_reference_is_first_sorted(self):
        catalog = Catalog()
        assert catalog.default_reference() is None
        catalog.register_reference(_Model("zeta-ref"))
        catalog.register_reference(_Model("alpha-ref"))
        assert catalog.default_reference() == "alpha-ref"
