"""The five evaluated applications (Section 4.2), with golden references."""

# Read by perfbench: cases.py (WORKLOAD_NAMES), spans.py (make_workload).
from repro.workloads.base import Workload
from repro.workloads.image_blur import ImageBlur
from repro.workloads.jpeg import JPEGWorkload
from repro.workloads.resnet50_conv3 import ResNet50Conv3
from repro.workloads.rotation3d import Rotation3D
from repro.workloads.vgg16_fc import VGG16FC


#: name -> zero-arg factory at the paper-specified shapes.  Keys match
#: each class's ``name`` attribute (pinned by a test) so a single
#: workload can be built by name without instantiating all five — the
#: paper-shape constructors generate multi-megabyte weight tensors, and
#: sweep tasks resolve workloads once per point.
PAPER_FACTORIES: dict[str, "type[Workload] | object"] = {
    ImageBlur.name: ImageBlur,
    VGG16FC.name: VGG16FC,
    ResNet50Conv3.name: ResNet50Conv3,
    JPEGWorkload.name: JPEGWorkload,
    Rotation3D.name: Rotation3D,
}

#: name -> zero-arg factory at reduced shapes: same structure, smaller
#: data, for fast tests and the perf smoke sweep.
SMALL_FACTORIES: dict[str, "object"] = {
    ImageBlur.name: lambda: ImageBlur(height=32, width=32),
    VGG16FC.name: lambda: VGG16FC(outputs=64, inputs=128),
    ResNet50Conv3.name: lambda: ResNet50Conv3(height=14, width=14,
                                              channels=16),
    JPEGWorkload.name: lambda: JPEGWorkload(height=32, width=48),
    Rotation3D.name: lambda: Rotation3D(vertices=34),
}

WORKLOAD_NAMES = tuple(PAPER_FACTORIES)


def make_workload(name: str, shapes: str = "paper") -> Workload:
    """Build one benchmark by name at the requested shape set."""
    if shapes == "paper":
        factories = PAPER_FACTORIES
    elif shapes == "small":
        factories = SMALL_FACTORIES
    else:
        raise ValueError(f"unknown shapes {shapes!r}; "
                         f"use 'paper' or 'small'")
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {sorted(factories)}") from None
    return factory()


def paper_workloads() -> list[Workload]:
    """The five benchmarks at their paper-specified shapes."""
    return [factory() for factory in PAPER_FACTORIES.values()]


def small_workloads() -> list[Workload]:
    """Reduced shapes for fast tests: same structure, smaller data."""
    return [factory() for factory in SMALL_FACTORIES.values()]


__all__ = [
    "PAPER_FACTORIES",
    "SMALL_FACTORIES",
    "WORKLOAD_NAMES",
    "make_workload",
    "paper_workloads",
    "small_workloads",
]
