/// \file chip_sim.h
/// Compatibility names for perfbench/driver.cpp only, which is frozen
/// until the next benchmark revision: the whole chip is a one-chip,
/// one-column FabricSpec run on FabricSim. Nothing else may include this
/// header (CI greps for it); it goes at the next benchmark revision,
/// together with the `shards` fields.
#pragma once

#include "sim/fabric_sim.h"

namespace taqos {

using ChipNetConfig = FabricSpec;
using ChipSim = FabricSim;

} // namespace taqos
