from __future__ import annotations

import shutil
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "shop"
GOLDEN_DIR = Path(__file__).parent / "goldens" / "shop"


def copy_shop(dest: Path) -> Path:
    shutil.copytree(
        FIXTURE_DIR, dest, ignore=shutil.ignore_patterns("variant", "out", "manifest.json")
    )
    return dest


def overlay_variant(dest: Path) -> Path:
    variant = FIXTURE_DIR / "variant"
    for src in sorted(variant.rglob("*")):
        if src.is_file():
            target = dest / src.relative_to(variant)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)
    return dest


@pytest.fixture()
def shop(tmp_path: Path) -> Path:
    """Pristine copy of the bundled three-service fixture."""
    return copy_shop(tmp_path / "shop")


@pytest.fixture()
def shop_variant(tmp_path: Path) -> Path:
    """Fixture copy with the rule-trigger variant files applied."""
    return overlay_variant(copy_shop(tmp_path / "shop"))


@pytest.fixture(scope="session")
def shop_system(tmp_path_factory):
    """The woven system for the bundled fixture plus its golden directory."""
    import io

    from microweave.runner import build_system, load_config

    dest = copy_shop(tmp_path_factory.mktemp("shop system") / "shop")
    config = load_config(dest / "config.json")
    return build_system(config, log=io.StringIO()), GOLDEN_DIR
