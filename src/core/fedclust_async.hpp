// FedClust under the fl/async engine. FedClust is itself an
// fl::Algorithm with static membership after formation, so fl::run_async
// drives it directly; this name is kept for code that refers to the
// buffered binding.
#pragma once

#include "core/fedclust.hpp"

namespace fedclust::core {

using FedClustAsync = FedClust;

}  // namespace fedclust::core
