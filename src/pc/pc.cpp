#include "pc/pc.hpp"

#include "base/error.hpp"
#include "mat/csr.hpp"
#include "pc/bjacobi.hpp"
#include "pc/ilu0.hpp"
#include "pc/jacobi.hpp"
#include "pc/sor.hpp"

namespace kestrel::pc {

std::unique_ptr<Pc> make_pc(const std::string& type, const mat::Csr& a,
                            Index block_size) {
  if (type == "none") return std::make_unique<Identity>();
  if (type == "jacobi") return std::make_unique<Jacobi>(a);
  if (type == "bjacobi") return std::make_unique<BlockJacobi>(a, block_size);
  if (type == "sor") return std::make_unique<Sor>(a);
  if (type == "ilu") return std::make_unique<Ilu0>(a);
  KESTREL_FAIL("unknown pc type '" + type +
               "' (expected none|jacobi|bjacobi|sor|ilu)");
}

}  // namespace kestrel::pc
