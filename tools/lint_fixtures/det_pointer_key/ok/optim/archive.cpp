// Fixture: an archive fed in a stable order is fine — the loop walks a
// vector of layers and only looks each one up in the pointer-keyed map.
#include <map>
#include <vector>

namespace ckpt {
class Archive {
 public:
  template <typename T>
  void operator()(T& v, const char* field);
};
}  // namespace ckpt

namespace fix {

struct Layer;

class Momentum {
 public:
  void fields(ckpt::Archive ar, const std::vector<const Layer*>& layers) {
    for (const Layer* layer : layers) ar(bufs_[layer], "momentum");
  }

 private:
  std::map<const Layer*, double> bufs_;
};

}  // namespace fix
