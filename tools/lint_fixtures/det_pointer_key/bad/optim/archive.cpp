// Fixture: iterating a pointer-keyed map into a snapshot archive writes
// address-ordered fields — must be flagged even though the loop body calls
// nothing named write/save/serialize: the archive itself is the sink.
#include <map>

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
  void fields(ckpt::Archive ar) {
    for (auto& kv : bufs_) ar(kv.second, "momentum");
  }

 private:
  std::map<const Layer*, double> bufs_;
};

}  // namespace fix
