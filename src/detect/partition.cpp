#include "detect/partition_impl.h"

namespace rejecto::detect {

template class BasicPartition<graph::GraphSource>;

}  // namespace rejecto::detect
